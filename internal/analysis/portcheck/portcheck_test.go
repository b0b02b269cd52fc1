package portcheck

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

// TestRepoIsPortClean is the acceptance criterion: the repository's own
// engines respect the rt runtime boundary and keep their handler state
// confined, and the analysis demonstrably covered them (engines, roles,
// roots and a real call graph — a clean run over nothing would prove
// nothing).
func TestRepoIsPortClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	// Exactly the engines and roles the repository has: a package that
	// gains or loses //rt:engine shows up here.
	engines := strings.Join(rep.Engines, " ")
	if want := "speccat/internal/checkpoint speccat/internal/kvstore speccat/internal/recovery speccat/internal/tpc speccat/internal/txn"; engines != want {
		t.Errorf("engine packages = %s, want %s", engines, want)
	}
	confined := strings.Join(rep.Confined, " ")
	if want := "checkpoint.Node tpc.Cohort tpc.Coordinator txn.Master txn.Site"; confined != want {
		t.Errorf("confined role types = %s, want %s", confined, want)
	}
	roots := strings.Join(rep.Roots, " ")
	for _, want := range []string{"Coordinator.HandleMessage", "Cohort.HandleMessage", "Master.handle"} {
		if !strings.Contains(roots, want) {
			t.Errorf("analysis roots missing %s (got %s)", want, roots)
		}
	}
	if rep.Analyzed < 30 {
		t.Errorf("confinement analysis covered only %d functions; coverage collapsed", rep.Analyzed)
	}
}

// TestPortCleanFixture pins that a well-ported engine produces zero
// findings: rt-only imports, event-loop timers, a guarded field touched
// from a goroutine, and a reasoned rt-boundary suppression on a harness
// import.
func TestPortCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "portclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	if len(rep.Engines) != 1 {
		t.Errorf("Engines = %v, want exactly the fixture package", rep.Engines)
	}
	if len(rep.Roots) == 0 {
		t.Error("no analysis roots extracted; fixture coverage collapsed")
	}
	if rep.Guards["Node.stats"] != "mutex" {
		t.Errorf("Guards = %v, want Node.stats guarded by mutex", rep.Guards)
	}
}

// TestPortBadFixture pins one finding per mutation class: simulator
// import, type assertion to a simulator concretion, goroutine field
// escape, stored-closure escape, returned interior pointer, and
// malformed/unattached annotations.
func TestPortBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "portbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)

	// Each mutation class yields exactly one finding.
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Rule]++
	}
	if counts[RuleBoundary] != 2 {
		t.Errorf("rt-boundary findings = %d, want 2 (one import, one type assertion)", counts[RuleBoundary])
	}
	if counts[RuleConfine] != 3 {
		t.Errorf("rt-confine findings = %d, want 3 (goroutine escape, stored closure, interior pointer)", counts[RuleConfine])
	}
	if counts[RuleExtract] != 3 {
		t.Errorf("rt-extract findings = %d, want 3 (unknown verb, misplaced engine, malformed guard)", counts[RuleExtract])
	}
}
