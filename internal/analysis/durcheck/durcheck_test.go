package durcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"speccat/internal/analysis"
	"speccat/internal/analysis/analysistest"
	"speccat/internal/explore"
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

// TestRepoIsDurClean is the acceptance criterion: the repository's own
// protocol engines satisfy the write-ahead / durability-ordering
// discipline, and the analysis demonstrably covered them (roots,
// requiring kinds, write summaries and volatile objects all extracted —
// a clean run over nothing would prove nothing).
func TestRepoIsDurClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	roots := strings.Join(rep.Roots, " ")
	for _, want := range []string{
		"Cohort.HandleMessage", "Coordinator.HandleMessage",
		"Coordinator.Begin", "Cohort.RecoverAll", "Coordinator.RecoverAll",
		"Node.HandleMessage", // checkpoint
	} {
		if !strings.Contains(roots, want) {
			t.Errorf("analysis roots missing %s (got %s)", want, roots)
		}
	}
	for kind, class := range map[string]string{
		"KindCommitReq": "state",
		"KindVoteYes":   "state",
		"KindPrepare":   "state",
		"KindAck":       "state",
		"KindCommit":    "decision",
		"KindAbort":     "decision",
		"kindAck":       "checkpoint",
	} {
		if rep.Requires[kind] != class {
			t.Errorf("Requires[%s] = %q, want %q", kind, rep.Requires[kind], class)
		}
	}
	if rep.KindValue["KindCommit"] != "tpc.commit" {
		t.Errorf("KindValue[KindCommit] = %q, want tpc.commit", rep.KindValue["KindCommit"])
	}
	for _, fn := range []string{"Cohort.decide", "endpoint.persist", "endpoint.persistDecision", "Log.append", "Node.saveTentative"} {
		if len(rep.Writes[fn]) == 0 {
			t.Errorf("no //dur:writes summary extracted for %s", fn)
		}
	}
	if len(rep.Volatiles) == 0 || !strings.Contains(strings.Join(rep.Volatiles, " "), "Store.data") {
		t.Errorf("volatile objects = %v, want kvstore Store.data", rep.Volatiles)
	}
	if rep.Analyzed < 20 {
		t.Errorf("flow analysis covered only %d functions; coverage collapsed", rep.Analyzed)
	}
}

// TestDurCleanFixture pins that a fully annotated engine that persists
// before sending produces zero findings — including the wrapper send, the
// variable kind, the if-init durable write and the reasoned ignore.
func TestDurCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "durclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	if len(rep.Roots) != 2 {
		t.Errorf("roots = %v, want the fsm:handler and dur:handler pair", rep.Roots)
	}
	if len(rep.Requires) != 3 {
		t.Errorf("requires = %v, want 3 annotated kinds", rep.Requires)
	}
}

// TestDurBadFixture pins that every seeded mutation class — hoisted send,
// one-branch write, volatile-before-log, missing and stale //dur:writes,
// malformed/unattached directives, unresolvable kind — is caught, each
// exactly where its want comment says.
func TestDurBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "durbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	if len(diags) < 7 {
		t.Fatalf("durbad fixture produced %d diagnostics, want the full mutation set", len(diags))
	}
}

// crossValSeeds is the probe seed set shared by the positive and negative
// cross-validation tests.
var crossValSeeds = []int64{1, 2, 3}

// TestCrossValidateConfirmsFinding ties the durbad fixture to the staging:
// its dur-send finding names a kind whose wire value is the real engine's
// commit message, the kind CrossValidate stages a crash around. The dynamic
// confirmation is TestCrossValidateNegativeControl's kill on the unsafe
// termination mutant (internal/mutant), whose backup sends that kind before
// it persists.
func TestCrossValidateConfirmsFinding(t *testing.T) {
	dir := analysistest.FixtureDir(t, "durbad")
	rep, diags := Run(analysistest.Load(t, dir))
	kindRE := regexp.MustCompile(`send of (\w+) requires a durable`)
	kindValue := ""
	for _, d := range diags {
		if d.Rule != RuleSend {
			continue
		}
		if m := kindRE.FindStringSubmatch(d.Message); m != nil {
			kindValue = rep.KindValue[m[1]]
			break
		}
	}
	if kindValue != "tpc.commit" {
		t.Fatalf("no dur-send finding mapping to the engine's commit kind (got %q)", kindValue)
	}
}

// TestCrossValidateNegativeControl pins the other direction: the staging
// against the served, write-ahead engine finds nothing — the fixed ordering
// really is what makes the schedule harmless. On the unsafe termination
// mutant it finds the witness E15 reports, and says whether that witness is
// the schedule internal/explore keeps as testdata/unsafe_term_atomicity.json,
// so a change that moves the staging coordinates cannot leave that golden
// replaying some other run. On a mismatch, put the witness's schedule into
// the golden.
func TestCrossValidateNegativeControl(t *testing.T) {
	cv, err := CrossValidate("tpc.commit", crossValSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if cv == nil {
		return
	}
	const golden = "../../explore/testdata/unsafe_term_atomicity.json"
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := explore.ParseTrace(data)
	if err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	same := "its schedule equals " + filepath.Base(golden)
	if want := cv.Schedule.Normalize(); !reflect.DeepEqual(rec.Schedule, want) {
		same = fmt.Sprintf("its schedule %+v is not %s's %+v", want, filepath.Base(golden), rec.Schedule)
	}
	t.Fatalf("unexpected witness against the write-ahead engine: seed %d with %d faults violates %v; %s",
		cv.Seed, len(cv.Schedule.Faults), cv.Violated, same)
}
