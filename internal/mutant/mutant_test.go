package mutant

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEditsApplyOnce: every catalogued edit's old text occurs exactly once
// in its file, so no mutant silently stops applying as the code moves, and
// every mutant names a gate.
func TestEditsApplyOnce(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range Catalogue() {
		if names[m.Name] {
			t.Errorf("mutant %q catalogued twice", m.Name)
		}
		names[m.Name] = true
		if len(m.Kills)+len(m.Spares) == 0 {
			t.Errorf("mutant %q has no gate", m.Name)
		}
		for _, e := range m.Edits {
			data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(e.File)))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(data), e.Old); n != 1 {
				t.Errorf("mutant %q: old text occurs %d times in %s, want 1: %q", m.Name, n, e.File, e.Old)
			}
		}
	}
}

// TestCatalogue is the kill matrix: every kill gate fails on its mutant,
// every spare gate passes on it, and every gate passes on the unmutated
// copy. Mutants are judged in parallel (go test -parallel). Run verbosely
// (make mutants), it prints the matrix.
func TestCatalogue(t *testing.T) {
	cat := Catalogue()
	verdicts := make([][]Verdict, len(cat))
	t.Run("judge", func(t *testing.T) {
		for i, m := range cat {
			t.Run(m.Name, func(t *testing.T) {
				t.Parallel()
				vs, err := Judge(m.Name)
				if err != nil {
					t.Fatal(err)
				}
				verdicts[i] = vs
			})
		}
	})
	rows := []string{fmt.Sprintf("%-40s %-46s %-7s %-7s %s", "mutant", "gate", "mutant", "control", "evidence")}
	for _, vs := range verdicts {
		for _, v := range vs {
			verdict, control := "spared", "passes"
			if v.Killed {
				verdict = "KILLED"
			}
			if !v.ControlPassed {
				control = "FAILS"
			}
			rows = append(rows, fmt.Sprintf("%-40s %-46s %-7s %-7s %s", v.Mutant, v.Gate, verdict, control, v.Evidence))
			if !v.AsExpected() {
				t.Errorf("%s × %s: killed %v, want %v; control passed %v (%s)", v.Mutant, v.Gate, v.Killed, v.Want, v.ControlPassed, v.Evidence)
			}
		}
	}
	t.Log("kill matrix:\n" + strings.Join(rows, "\n"))
}

// TestGateNamingNoTestIsAnError: a gate whose name matches no test of its
// package is an error, not a pass — a renamed test cannot turn a kill
// into a silent spare.
func TestGateNamingNoTestIsAnError(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"TestNoSuchGate", "TestWindowMatches"} {
		if _, _, err := run(root, Test("./internal/stable", name)); err == nil {
			t.Errorf("gate %s ran no test and was not an error", name)
		}
	}
}
