package prover

import (
	"maps"
	"math/rand"
	"testing"

	"speccat/internal/core/logic"
	"speccat/internal/core/logic/logictest"
)

// resolventsRef is the resolution path the search took before it checked
// resolvents under the unifier, kept as the reference: every binary
// resolvent of a and b is built, then simplified.
func resolventsRef(a, b *logic.Clause) []*logic.Clause {
	var out []*logic.Clause
	for i, la := range a.Literals {
		for j, lb := range b.Literals {
			if la.Negated == lb.Negated {
				continue
			}
			s, ok := logic.UnifyAtoms(la.Atom, lb.Atom, nil)
			if !ok {
				continue
			}
			lits := make([]logic.Literal, 0, len(a.Literals)+len(b.Literals)-2)
			for k, l := range a.Literals {
				if k != i {
					lits = append(lits, l.Apply(s))
				}
			}
			for k, l := range b.Literals {
				if k != j {
					lits = append(lits, l.Apply(s))
				}
			}
			if c := simplifyRef(lits); c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// simplifyRef removes duplicate literals of a built clause and returns
// nil for tautologies.
func simplifyRef(lits []logic.Literal) *logic.Clause {
	out := lits[:0]
	for _, l := range lits {
		dup := false
		for _, m := range out {
			if l.Negated == m.Negated && l.Atom.Equal(m.Atom) {
				dup = true
				break
			}
			if l.Complementary(m) {
				return nil
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return &logic.Clause{Literals: out}
}

// addClauseRef records a built clause as the search did before add: the
// limits are checked on the clause and its key encoded from it.
func (st *searchState) addClauseRef(c *logic.Clause, rule string, parents []int) int {
	if len(c.Literals) > st.limits.MaxClauseLiterals {
		st.overLits++
		return -1
	}
	size := 0
	for _, l := range c.Literals {
		sz := 0
		for _, a := range l.Atom.Args {
			sz += a.Size()
		}
		if sz > st.limits.MaxTermSize {
			st.overSize++
			return -1
		}
		size += sz
	}
	key := c.Canonical()
	if _, dup := st.seen[key]; dup || len(st.steps) >= st.limits.MaxClauses {
		return -1
	}
	idx := len(st.steps)
	st.seen[key] = idx
	st.steps = append(st.steps, ProofStep{Index: idx, Clause: c, Rule: rule, Parents: parents})
	st.size = append(st.size, size)
	st.stats.Retained++
	return idx
}

// randomClause draws one to three literals over P/1, P/2, Q/1 and
// equality, with random polarity and terms from logictest.
func randomClause(r *rand.Rand, sortOf func(string) string) *logic.Clause {
	c := &logic.Clause{}
	for range 1 + r.Intn(3) {
		term := func() *logic.Term { return logictest.Term(r, 2, sortOf) }
		var atom *logic.Formula
		switch r.Intn(4) {
		case 0:
			atom = logic.Pred("P", term())
		case 1:
			atom = logic.Pred("P", term(), term())
		case 2:
			atom = logic.Pred("Q", term())
		default:
			atom = logic.Eq(term(), term())
		}
		c.Literals = append(c.Literals, logic.Literal{Negated: r.Intn(2) == 0, Atom: atom})
	}
	return c
}

// TestResolveMatchesReference checks resolve, which simplifies, sizes and
// keys a resolvent under the unifier before building it, against the
// reference path that builds every resolvent first. Random clause pairs
// from a small pool, so that duplicates recur, run through both on the
// same limits: the retained clauses, their order, sizes and keys, the
// Generated count and the discards must agree. Symbols take a random sort
// per occurrence, so literals that differ only in a sort occur.
func TestResolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sortOf := func(symbol string) string { return []string{"", "S", logictest.WellSorted(symbol)}[r.Intn(3)] }
	lim := Limits{MaxClauses: 40, MaxClauseLiterals: 3, MaxTermSize: 8}
	for trial := range 2000 {
		ref := &searchState{limits: lim, seen: map[string]int{}}
		got := &searchState{limits: lim, seen: map[string]int{}}
		pool := make([]*logic.Clause, 4)
		for i := range pool {
			pool[i] = randomClause(r, sortOf)
		}
		for range 16 {
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			left, right := a.RenameVars("_l"), b.RenameVars("_r")
			refStop := -1
			for _, c := range resolventsRef(left, right) {
				ref.stats.Generated++
				if idx := ref.addClauseRef(c, "resolve", []int{0, 1}); idx >= 0 && c.IsEmpty() {
					refStop = idx
					break
				}
			}
			gotStop := got.resolve(left, right, 0, 1)
			if gotStop != refStop || got.stats != ref.stats || got.overLits != ref.overLits || got.overSize != ref.overSize ||
				len(got.steps) != len(ref.steps) || !maps.Equal(got.seen, ref.seen) {
				t.Fatalf("trial %d, %s × %s: resolve stopped at %d with %+v, %d/%d discards, %d clauses; reference stopped at %d with %+v, %d/%d discards, %d clauses",
					trial, left, right, gotStop, got.stats, got.overLits, got.overSize, len(got.steps),
					refStop, ref.stats, ref.overLits, ref.overSize, len(ref.steps))
			}
			for i := range ref.steps {
				if g, w := got.steps[i].Clause.String(), ref.steps[i].Clause.String(); g != w || got.size[i] != ref.size[i] {
					t.Fatalf("trial %d: clause %d is %s (size %d), reference %s (size %d)", trial, i, g, got.size[i], w, ref.size[i])
				}
			}
			if refStop >= 0 {
				break
			}
		}
	}
}

// TestDuplicateResolventDoesNotAllocate pins that a resolvent already in
// the clause set costs no allocation: unification appends to the search
// state's reused substitution, and the resolvent is simplified, sized and
// keyed without being built.
func TestDuplicateResolventDoesNotAllocate(t *testing.T) {
	x, c := logic.Var("x", "S"), logic.Const("c", "S")
	a := &logic.Clause{Literals: []logic.Literal{
		{Atom: logic.Pred("P", x)},
		{Atom: logic.Pred("Q", logic.App("f", "S", x, logic.Var("y", "")))},
	}}
	b := &logic.Clause{Literals: []logic.Literal{{Negated: true, Atom: logic.Pred("P", c)}}}
	left, right := a.RenameVars("_l"), b.RenameVars("_r")
	st := &searchState{limits: DefaultLimits(), seen: map[string]int{}}
	if st.resolve(left, right, 0, 1) != -1 || len(st.steps) != 1 {
		t.Fatalf("first resolve kept %d clauses, want 1", len(st.steps))
	}
	allocs := testing.AllocsPerRun(100, func() { st.resolve(left, right, 0, 1) })
	if len(st.steps) != 1 {
		t.Fatalf("duplicate resolvent was retained: %d clauses", len(st.steps))
	}
	if allocs != 0 {
		t.Errorf("resolving to a duplicate allocates %v times, want 0", allocs)
	}
}
