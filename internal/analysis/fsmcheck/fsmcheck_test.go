package fsmcheck

import (
	"sort"
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

// TestRepoIsFSMClean is the acceptance criterion: extracting and checking
// the repository's own protocol engines yields no findings, and the tpc
// machines verify against the abstract model.
func TestRepoIsFSMClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	tpc, ok := rep.Machines["tpc"]
	if !ok {
		t.Fatal("no tpc machine extracted")
	}
	if len(tpc.States) != 5 {
		t.Errorf("tpc states = %d, want 5", len(tpc.States))
	}
	if tpc.ModelEdges == nil {
		t.Error("tpc machine was not cross-validated against internal/mc")
	}
	want := []string{
		"coordinator: q->w", "coordinator: w->p", "coordinator: w->c",
		"coordinator: p->c", "coordinator: q->a", "coordinator: w->a", "coordinator: p->a",
		"cohort: q->w", "cohort: w->p",
		"cohort: q->a", "cohort: w->a", "cohort: p->a",
		"cohort: q->c", "cohort: w->c", "cohort: p->c",
	}
	got := map[string]bool{}
	for _, e := range tpc.Edges {
		got[e.String()] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("edge %s not extracted; have %v", w, tpc.Edges)
		}
	}
	if len(got) != len(want) {
		t.Errorf("extracted %d distinct edges, want %d: %v", len(got), len(want), tpc.Edges)
	}
	var machines []string
	for name := range rep.Machines {
		machines = append(machines, name)
	}
	sort.Strings(machines)
	if got := strings.Join(machines, " "); got != "tpc txn" {
		t.Errorf("machines extracted = %q, want \"tpc txn\"", got)
	}
}

// TestFSMCleanFixture pins that a fully annotated, fully handled toy
// protocol produces zero findings.
func TestFSMCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "fsmclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	toy, ok := rep.Machines["toy"]
	if !ok {
		t.Fatal("no toy machine extracted")
	}
	if len(toy.Edges) != 2 {
		t.Errorf("toy edges = %v, want i->b and b->i", toy.Edges)
	}
}

// TestFSMBadFixture pins that every seeded mutation class — deleted
// handler arm, silent drops, duplicate wire value, cross-role case, dead
// state and kind, unresolvable emit argument, malformed directives, and a
// non-total codec — is caught, each exactly where its want comment says.
func TestFSMBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "fsmbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	if len(diags) == 0 {
		t.Fatal("fsmbad fixture produced no diagnostics")
	}
	rules := map[string]bool{}
	for _, d := range diags {
		rules[d.Rule] = true
	}
	for _, r := range []string{RuleExhaustive, RuleSilentDrop, RuleDeterminism, RuleDead, RuleCodec, RuleExtract} {
		if !rules[r] {
			t.Errorf("fixture does not exercise rule %s", r)
		}
	}
}

// TestCrossValidateRejectsNonModelEdge drives crossValidate directly with
// a machine whose edge set contains a transition no model variant allows,
// one justified divergence, and one stale justification.
func TestCrossValidateRejectsNonModelEdge(t *testing.T) {
	x := newExtractor(nil)
	m := x.machine("tpc")
	m.Edges = []Edge{
		{Role: "coordinator", From: "a", To: "c"}, // abort->commit: never in any model
		{Role: "cohort", From: "q", To: "c"},      // justified below
	}
	m.Extras = []*ModelExtra{
		{Machine: "tpc", Role: "cohort", From: "q", To: "c", Reason: "test"},
		{Machine: "tpc", Role: "cohort", From: "q", To: "w", Reason: "stale: model has it"},
	}
	x.crossValidate(m)
	if m.ModelEdges == nil {
		t.Fatal("model relation was not attached")
	}
	var bogus, stale int
	diags := x.Diagnostics()
	for _, d := range diags {
		if d.Rule != RuleModel {
			t.Errorf("unexpected rule %s: %s", d.Rule, d)
		}
		switch {
		case strings.Contains(d.Message, "coordinator: a->c"):
			bogus++
		case strings.Contains(d.Message, "stale") && strings.Contains(d.Message, "q->w"):
			stale++
		default:
			t.Errorf("unexpected fsm-model finding: %s", d)
		}
	}
	if bogus != 1 {
		t.Errorf("expected exactly one non-model-edge finding, got %d (%v)", bogus, diags)
	}
	if stale != 1 {
		t.Errorf("expected exactly one stale-justification finding, got %d (%v)", stale, diags)
	}
}
