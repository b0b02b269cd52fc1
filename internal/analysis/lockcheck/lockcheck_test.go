package lockcheck

import (
	"strings"
	"testing"

	"speccat/internal/analysis"
	"speccat/internal/analysis/analysistest"
)

// loadRepo loads this repository's internal tree.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRepoIsLockClean is the acceptance criterion: the repository's own
// engines follow the lock discipline (with reasoned suppressions where a
// policy argument replaces the static one), and the analysis demonstrably
// covered them — roots found, acquire/release sites counted, SyncThen
// continuations examined. A clean run over zero lock events
// would be vacuous, not clean.
func TestRepoIsLockClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	roots := strings.Join(rep.Roots, " ")
	for _, want := range []string{
		"Store.Get", "Store.Put", "Store.Increment", // //comm:op store operations
		"Master.handle", "Site.handle", // //fsm:handler engines
		"Site.applyDecision", // the //lock:handler-opted commit-path callback
		"Cohort.HandleMessage", "Coordinator.HandleMessage",
	} {
		if !strings.Contains(roots, want) {
			t.Errorf("analysis roots missing %s (got %s)", want, roots)
		}
	}
	if rep.Analyzed < 15 {
		t.Errorf("Analyzed = %d, want >= 15 (coverage collapsed)", rep.Analyzed)
	}
	if rep.AcquireSites < 5 {
		t.Errorf("AcquireSites = %d, want >= 5 (one per store operation: Get, Put, Increment, Append, SetInsert)", rep.AcquireSites)
	}
	if rep.ReleaseSites < 2 {
		t.Errorf("ReleaseSites = %d, want >= 2 (Commit and Abort)", rep.ReleaseSites)
	}
	if rep.SyncThenSites < 3 {
		t.Errorf("SyncThenSites = %d, want >= 3 (the durability-wait continuations)", rep.SyncThenSites)
	}
}

// TestLockCleanFixture: every clean shape is accepted, and the fixture
// exercised the analysis for real (acquire sites seen, a continuation
// scanned).
func TestLockCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "lockclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	if rep.AcquireSites == 0 || rep.SyncThenSites == 0 {
		t.Errorf("vacuous fixture coverage: %+v", rep)
	}
}

// TestLockBadFixture: exactly one finding per seeded mutation class, each
// on its seeded line.
func TestLockBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "lockbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
}
