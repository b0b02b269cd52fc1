package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// process runs processFile on the thesis serializability listing with
// stdout redirected to a file and returns what it printed.
func process(t *testing.T, skipProofs bool, jobs int) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	path := filepath.Join("..", "..", "internal", "core", "speclang", "testdata", "thesis", "serializability.sw")
	if err := processFile(path, true, skipProofs, jobs, "p1", false); err != nil {
		t.Fatalf("processFile(-skip-proofs=%v -j %d): %v", skipProofs, jobs, err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestWorkerCountDoesNotChangeOutput: the summary and the printed proof
// are the same text at -j 1 and -j 4 once durations are masked.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	durations := regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\)`)
	one := durations.ReplaceAllString(process(t, false, 1), "_)")
	four := durations.ReplaceAllString(process(t, false, 4), "_)")
	if one != four {
		t.Errorf("-j 1 and -j 4 print different output:\n%s\n---\n%s", one, four)
	}
	if !strings.Contains(one, "proved (14 steps, 39799 clauses, _)") || !strings.Contains(one, "⊥") {
		t.Errorf("p1 not proved and printed:\n%s", one)
	}
}

// TestSkipProofsLeavesStatementsUnproved: -skip-proofs succeeds, runs no
// proof search, and shows the prove statement as its placeholder.
func TestSkipProofsLeavesStatementsUnproved(t *testing.T) {
	out := process(t, true, 1)
	if strings.Contains(out, "proved") || !strings.Contains(out, "prove Serialize in TWOPHASELOCK (skipped)") {
		t.Errorf("-skip-proofs output:\n%s", out)
	}
}
