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

// evidence pins what a kill must say beyond failing: the naive sweep its
// first witness and the counterexample it shrinks to, each golden replay
// that the run it recorded is reproduced byte-for-byte, the staged schedule
// its witness and that the witness is the golden's schedule.
var evidence = map[[2]string][]string{
	{"naive timeouts", "TestExplore3PCCleanUnderDesignFaults"}: {"seed 45 violated [atomicity]", "shrunk to 1 txns with faults [crash sender of send #30]"},
	{"naive timeouts", "TestAblationGoldensRunClean"}:          {"naive3pc_atomicity.json", "matches the recording byte-for-byte"},
	{"unsafe termination", "TestAblationGoldensRunClean"}:      {"unsafe_term_atomicity.json", "matches the recording byte-for-byte"},
	{"unsafe termination", "TestCrossValidateNegativeControl"}: {"seed 1 with 4 faults violates [atomicity]", "its schedule equals unsafe_term_atomicity.json"},
}

// TestCatalogue is the kill matrix: every kill gate fails on its mutant,
// every spare gate passes on it, and every gate passes on the unmutated
// copy; a pinned kill says what evidence pins. One Judge call judges every
// mutant, each gate's control running once; each mutant's subtest checks
// its verdicts. Run verbosely (make mutants), it prints the matrix.
func TestCatalogue(t *testing.T) {
	cat := Catalogue()
	var names []string
	for _, m := range cat {
		names = append(names, m.Name)
	}
	verdicts, err := Judge(names)
	if err != nil {
		t.Fatal(err)
	}
	rows := []string{fmt.Sprintf("%-40s %-46s %-7s %-7s %s", "mutant", "gate", "mutant", "control", "evidence")}
	t.Run("judge", func(t *testing.T) {
		for _, m := range cat {
			t.Run(m.Name, func(t *testing.T) {
				for _, v := range verdicts {
					if v.Mutant != m.Name {
						continue
					}
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
					for _, want := range evidence[[2]string{v.Mutant, v.Gate.String()}] {
						if !strings.Contains(v.Evidence, want) {
							t.Errorf("%s × %s: evidence %q does not say %q", v.Mutant, v.Gate, v.Evidence, want)
						}
					}
				}
			})
		}
	})
	t.Log("kill matrix:\n" + strings.Join(rows, "\n"))
}

// TestGateNamingNoTestIsAnError: a gate whose name matches no test of its
// package is an error, not a pass — alone, or run in one go test with a
// gate that does name a test — so a renamed test cannot turn a kill into a
// silent spare.
func TestGateNamingNoTestIsAnError(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"TestNoSuchGate", "TestWindowMatches"} {
		for _, names := range [][]string{{name}, {"TestWindowMatchesFullCopy", name}} {
			if err := runTests(root, "./internal/stable", names, map[Gate]outcome{}); err == nil {
				t.Errorf("gates %q: %s ran no test and was not an error", names, name)
			}
		}
	}
}

// TestGateNamingNoLayerIsAnError: a lint gate whose layer is not a row of
// the layer table is an error, not a silent spare — speccatlint would run
// clean, and no finding could carry that layer.
func TestGateNamingNoLayerIsAnError(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"spec", "durr"} {
		if err := runLint(root, map[Gate]outcome{Lint("dur"): {}, Lint(layer): {}}); err == nil || !strings.Contains(err.Error(), layer) {
			t.Errorf("lint gate %q: got %v, want an error naming it", layer, err)
		}
	}
}
