// Package logictest generates random terms for property tests of the
// logic package and of its users.
package logictest

import (
	"math/rand"

	"speccat/internal/core/logic"
)

// WellSorted gives each symbol its one sort, mirroring a well-sorted
// signature: soundness of unification w.r.t. sort-sensitive Equal only
// holds for sort-consistent corpora.
func WellSorted(symbol string) string {
	switch symbol {
	case "x", "a", "f":
		return "S"
	case "y", "b", "g":
		return "T"
	}
	return ""
}

// Term builds a random term of bounded depth over the variables x, y, z,
// the constants a, b, c and the functions f, g, each occurrence of a
// symbol taking the sort sortOf gives it.
func Term(r *rand.Rand, depth int, sortOf func(symbol string) string) *logic.Term {
	switch {
	case depth <= 0 || r.Intn(3) == 0:
		if r.Intn(2) == 0 {
			n := []string{"x", "y", "z"}[r.Intn(3)]
			return logic.Var(n, sortOf(n))
		}
		n := []string{"a", "b", "c"}[r.Intn(3)]
		return logic.Const(n, sortOf(n))
	default:
		n := r.Intn(3)
		args := make([]*logic.Term, n)
		for i := range args {
			args[i] = Term(r, depth-1, sortOf)
		}
		if n == 0 {
			return logic.Const("a", sortOf("a"))
		}
		f := []string{"f", "g"}[r.Intn(2)]
		return logic.App(f, sortOf(f), args...)
	}
}
