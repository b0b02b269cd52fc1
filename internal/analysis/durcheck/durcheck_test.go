package durcheck

import (
	"os"
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

// TestCrossValidateConfirmsFinding closes the static→dynamic loop: the
// durbad fixture's dur-send finding names a kind whose wire value is the
// real engine's commit message, and CrossValidate turns it into a
// replayable schedule that makes the unsafe-termination engine violate
// the atomicity or durability oracle.
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
	cv, err := CrossValidate(kindValue, "3pc-unsafe-term", crossValSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if cv == nil {
		t.Fatal("no dynamic witness: the unsafe-termination engine should violate atomicity or durability under the staged crash")
	}
	violated := strings.Join(cv.Violated, " ")
	if !strings.Contains(violated, "atomicity") && !strings.Contains(violated, "durability") {
		t.Fatalf("witness violates %v, want atomicity or durability", cv.Violated)
	}
	if len(cv.Schedule.Faults) != 4 {
		t.Errorf("witness schedule has %d faults, want drop+crash+crash-at-send+recover", len(cv.Schedule.Faults))
	}
}

// TestCrossValidateNegativeControl pins the other direction: the same
// staging against the write-ahead engine finds nothing — the fixed
// ordering really is what makes the schedule harmless.
func TestCrossValidateNegativeControl(t *testing.T) {
	cv, err := CrossValidate("tpc.commit", "3pc", crossValSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if cv != nil {
		t.Fatalf("unexpected witness against the write-ahead engine: seed %d violates %v", cv.Seed, cv.Violated)
	}
}

// TestWitnessIsExplorerGolden ties the explorer's third golden to E15: the
// schedule internal/explore replays byte-for-byte as
// testdata/unsafe_term_atomicity.json is the witness CrossValidate stages,
// so a change that moves the staging coordinates cannot leave the golden
// replaying some other run. On a mismatch, put the witness's schedule into
// the golden and rerun `go test ./internal/explore -update`.
func TestWitnessIsExplorerGolden(t *testing.T) {
	const golden = "../../explore/testdata/unsafe_term_atomicity.json"
	cv, err := CrossValidate("tpc.commit", "3pc-unsafe-term", crossValSeeds)
	if err != nil || cv == nil {
		t.Fatalf("no witness to compare: %v", err)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := explore.ParseTrace(data)
	if err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if want := cv.Schedule.Normalize(); !reflect.DeepEqual(rec.Schedule, want) {
		t.Errorf("%s replays\n%+v\nE15's witness is\n%+v", golden, rec.Schedule, want)
	}
}
