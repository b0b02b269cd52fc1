package main

import (
	"strings"
	"testing"
)

// TestRunDischargesCorpusOnce counts the corpus results run produces: a
// run of every experiment, which prints five proof experiments (E4–E6, E9,
// E14), discharges p1..p5 once and hands all five the same result set; a
// selection with no proof experiment discharges nothing. E11, E18 and E20
// are left out: they judge mutants in copies of the module through the go
// tool, and internal/mutant's TestCatalogue pins those verdicts.
func TestRunDischargesCorpusOnce(t *testing.T) {
	for _, tc := range []struct {
		only string
		want string
	}{
		{"e1,e2,e2b,e3,e4,e5,e6,e7,e8,e9,e10,e14,e15,e16,e17,e19", "p1 p3 p2 p4 p5"},
		{"e9", "p1 p3 p2 p4 p5"},
		{"e1,e2b", ""},
		{"e8,e10", ""},
	} {
		sel := func(name string) bool { return tc.only == "" || strings.Contains(","+tc.only+",", ","+name+",") }
		proofs, err := run(sel, 2026, 5, 1)
		if err != nil {
			t.Fatalf("-only %q: %v", tc.only, err)
		}
		var names []string
		for _, r := range proofs {
			names = append(names, r.Obligation.Name)
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("-only %q discharged [%s], want [%s]", tc.only, got, tc.want)
		}
	}
}
