package explore

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"speccat/internal/tpc"
)

// -update regenerates the golden counterexample traces in testdata/ from a
// fresh exploration. Generation is deterministic, so the files only change
// when the engine or the explorer changes behavior.
var update = flag.Bool("update", false, "regenerate golden traces")

// ciSeeds is the seed budget the CI-facing discovery tests and both
// `make explore` sweeps use; the exploration is deterministic, so these
// tests either always find the counterexample or never do. A default
// transfer spans two of the three sites, so a random crash lands between
// two prepares less often than it did over a three-cohort fan-out: of
// seeds 1–200 the naive timeouts mutant (internal/mutant) splits on 13
// (first 45, then 60, 69, 79 — three witnesses of margin inside the
// budget) and 2PC blocks on 65 (first 2).
const ciSeeds = 80

// TestExplore3PCCleanUnderDesignFaults: within the paper's fault envelope
// (one crash, reliable bounded-delay network, recovery only at event
// granularity), full 3PC with the termination protocol must violate no
// oracle on any seed. A finding is shrunk, so on the naive timeouts mutant
// (internal/mutant) the first failure names the seed and the minimal
// counterexample — the violation internal/mc finds abstractly, rediscovered
// end to end through the txn/kvstore/wal stack: a coordinator crash between
// two prepare sends, one transaction, one fault.
func TestExplore3PCCleanUnderDesignFaults(t *testing.T) {
	rep, err := Explore(Options{Protocol: Proto3PC, Seeds: ciSeeds, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeedsRun != ciSeeds {
		t.Fatalf("ran %d seeds, want %d", rep.SeedsRun, ciSeeds)
	}
	for _, f := range rep.Findings {
		shrunk := ""
		if f.Minimal != nil {
			shrunk = fmt.Sprintf("; shrunk to %d txns with faults %v", f.Minimal.Schedule.Txns, f.Minimal.Schedule.Faults)
		}
		t.Errorf("3pc seed %d violated %v with faults %v%s: %+v",
			f.Seed, f.Oracles, f.Schedule.Faults, shrunk, f.Violations)
	}
}

// TestExplore2PCBlocks: the 2PC baseline must exhibit the blocking the
// paper's introduction motivates — a coordinator crash leaves operational
// cohorts stuck in w — again shrunk to one transaction and one fault.
func TestExplore2PCBlocks(t *testing.T) {
	rep, err := Explore(Options{Protocol: Proto2PC, Seeds: ciSeeds, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	f := findingFor(rep, OracleProgress)
	if f == nil {
		t.Fatalf("no progress violation found in %d seeds", ciSeeds)
	}
	if f.Minimal == nil {
		t.Fatal("finding was not shrunk")
	}
	min := f.Minimal.Schedule
	if min.Txns != 1 || min.CrashCount() != 1 {
		t.Errorf("expected minimal counterexample of 1 txn + 1 crash, got %d txns, faults %v",
			min.Txns, min.Faults)
	}
	if !violates(f.Minimal.Violations, OracleProgress) {
		t.Errorf("minimal schedule violations lost the progress oracle: %+v", f.Minimal.Violations)
	}
}

// TestTraceDeterminism: the same schedule must produce byte-identical
// traces, and the same options must produce an identical report — the
// property that makes every counterexample replayable from its seed alone.
func TestTraceDeterminism(t *testing.T) {
	spec := Schedule{
		Protocol: Proto3PC, Seed: 2, Sites: 3, Accounts: 8, Txns: 12,
		Horizon: 4000, Faults: []Fault{{Kind: FaultCrashAtSend, Seq: 91}},
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Trace(), b.Trace()) {
		t.Fatal("same schedule produced different traces")
	}

	opts := Options{Protocol: Proto2PC, Seeds: 10, Shrink: true}
	r1, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Fatal("same options produced different exploration reports")
	}
}

// TestFaultFreeRunsAreClean: with no faults injected, every protocol
// variant passes every oracle — the oracles themselves don't false-alarm.
func TestFaultFreeRunsAreClean(t *testing.T) {
	for _, proto := range []string{Proto3PC, Proto2PC} {
		res, err := Run(Schedule{Protocol: proto, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: fault-free run reported violations: %+v", proto, res.Violations)
		}
		if res.Stats.Committed == 0 {
			t.Errorf("%s: fault-free run committed nothing", proto)
		}
		if res.Stats.Undecided != 0 {
			t.Errorf("%s: fault-free run left %d transactions undecided", proto, res.Stats.Undecided)
		}
	}
}

// TestScheduleValidation covers the schedule-level error paths.
func TestScheduleValidation(t *testing.T) {
	if _, err := Run(Schedule{Protocol: "paxos"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Run(Schedule{Protocol: Proto2PC, Faults: []Fault{{Kind: FaultCrashAtTime, Site: 1, At: 600}}}); err == nil {
		t.Error("faulted schedule without horizon accepted (a blocked cohort would never quiesce)")
	}
	if _, err := Explore(Options{Protocol: "paxos"}); err == nil {
		t.Error("Explore accepted unknown protocol")
	}
}

// TestBudgetStopsExploration: a run budget bounds the exploration
// deterministically and exhaustion is not an error.
func TestBudgetStopsExploration(t *testing.T) {
	rep, err := Explore(Options{Protocol: Proto3PC, Seeds: 100, Budget: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs > 9 {
		t.Errorf("budget 9 but %d runs consumed", rep.Runs)
	}
	if rep.SeedsRun >= 100 {
		t.Errorf("budget did not stop the exploration (%d seeds ran)", rep.SeedsRun)
	}
}

// golden trace files: the shrunk 2PC counterexample, and the recorded runs
// of the two commit-protocol mutants of internal/mutant — the naive timeouts
// split, shrunk, and E15's staged witness against unsafe termination, the
// one golden whose schedule restarts a node. All three replay on every test
// run: the first as recorded, the other two clean on the served engine.
const (
	goldenNaive      = "testdata/naive3pc_atomicity.json"
	golden2PC        = "testdata/2pc_blocking.json"
	goldenUnsafeTerm = "testdata/unsafe_term_atomicity.json"
)

// replayGolden reads a checked-in trace and runs the schedule it records.
func replayGolden(t *testing.T, file string) (recorded []byte, res *RunResult) {
	t.Helper()
	recorded, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: %v (run `go test ./internal/explore -update` to generate)", file, err)
	}
	rec, err := ParseTrace(recorded)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if res, err = Run(rec.Schedule); err != nil {
		t.Fatalf("%s: replay: %v", file, err)
	}
	return recorded, res
}

// TestGoldenTraces replays the checked-in shrunk 2PC counterexample: the
// recorded schedule must reproduce the recorded run byte-for-byte —
// cross-process, cross-platform determinism — and in particular the same
// oracle violation. Regenerate with `go test ./internal/explore -update`
// after intentional engine changes.
func TestGoldenTraces(t *testing.T) {
	if *update {
		regenerateGoldens(t)
	}
	data, res := replayGolden(t, golden2PC)
	if !violates(res.Violations, OracleProgress) {
		t.Errorf("%s: replay no longer violates %s: %+v", golden2PC, OracleProgress, res.Violations)
	}
	if !bytes.Equal(res.Trace(), data) {
		t.Errorf("%s: replayed trace differs from recording (engine behavior changed; rerun with -update and review)", golden2PC)
	}
}

// TestAblationGoldensRunClean runs the schedules of the two mutant goldens
// on the served engine, which no oracle convicts on them. On the naive
// timeouts or the unsafe termination mutant its golden replays the recorded
// split, and the failure says whether the replay matches the recording
// byte-for-byte: that is each mutant's golden-replay kill.
func TestAblationGoldensRunClean(t *testing.T) {
	for _, file := range []string{goldenNaive, goldenUnsafeTerm} {
		data, res := replayGolden(t, file)
		if len(res.Violations) == 0 {
			continue
		}
		match := "matches the recording byte-for-byte"
		if !bytes.Equal(res.Trace(), data) {
			match = "differs from the recording"
		}
		t.Errorf("%s: the run violates %v and %s: %+v", file, res.ViolatedOracles(), match, res.Violations)
	}
}

// TestCrashedNodeObservesNothing runs E15's staged schedule: site 2, the
// terminating backup, is crashed at a send of its decision fan-out — its
// handler still on the stack, its store frozen — and restarted later. What
// the dead stack goes on to do is not the site's history: the restart
// decides the crashed send's transaction as Fig. 3.2 recovers the state the
// disk held while the site was down, and at the end the commits the runner
// saw each site apply are exactly those its disk records. The served backup
// persists before it sends, so its disk holds the decision; the unsafe
// termination mutant (internal/mutant) sends first, its disk holds w and
// the restart aborts. Both pass: this is that mutant's spare gate.
func TestCrashedNodeObservesNothing(t *testing.T) {
	spec := goldenSchedule(t, goldenUnsafeTerm)
	var crash, restart Fault
	for _, f := range spec.Faults {
		switch f.Kind {
		case FaultCrashAtSend:
			crash = f
		case FaultRecoverAtTime:
			restart = f
		}
	}
	down := spec
	down.Horizon = restart.At - 1
	_, d, err := run(down)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(d.sendLog, func(s SendInfo) bool { return s.Seq == crash.Seq })
	var msg struct{ Txn string }
	if i < 0 || d.net.Up(d.sendLog[i].From) {
		t.Fatalf("send #%d crashed no sender", crash.Seq)
	}
	if data, err := json.Marshal(d.sendLog[i].Payload); err != nil || json.Unmarshal(data, &msg) != nil || msg.Txn == "" {
		t.Fatalf("send #%d names no transaction: %+v", crash.Seq, d.sendLog[i])
	}
	site := d.sendLog[i].From
	st, _ := d.net.Store(site)
	raw, _ := st.Get("tpc/" + msg.Txn + "/state")
	onDisk, err := tpc.ParseState(string(raw))
	if err != nil {
		t.Fatalf("site %d's disk while down: %v", site, err)
	}

	_, r, err := run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := tpc.DecisionAbort
	if onDisk.Committable() {
		want = tpc.DecisionCommit
	}
	st, _ = r.net.Store(site)
	if got, err := tpc.DurableDecision(st, msg.Txn); err != nil || got != want {
		t.Errorf("site %d crashed with %s in %s on disk and restarted into %s (%v), want %s", site, msg.Txn, onDisk, got, err, want)
	}
	for _, id := range r.cluster.SiteIDs {
		st, _ := r.net.Store(id)
		var onDisk []string
		for _, name := range r.submitted {
			if d, _ := tpc.DurableDecision(st, name); d == tpc.DecisionCommit {
				onDisk = append(onDisk, name)
			}
		}
		applied := slices.Clone(r.applied[id])
		slices.Sort(applied)
		if slices.Sort(onDisk); !slices.Equal(applied, onDisk) {
			t.Errorf("site %d applied commits %v, its disk records %v", id, applied, onDisk)
		}
	}
}

// regenerateGoldens re-explores 2PC and records its shrunk counterexample.
// The two mutant goldens are re-recorded only in a module copy carrying
// their mutant's catalogue edit, where the naive sweep splits again and the
// schedule E15's golden already holds violates again; on the served engine
// neither does, and both files are left as recorded. E15's schedule is
// staged by durcheck.CrossValidate, which this package cannot import;
// durcheck's TestCrossValidateNegativeControl, failing on the unsafe
// termination mutant, reports whether its witness is still that schedule.
func regenerateGoldens(t *testing.T) {
	t.Helper()
	gen := func(proto, oracle, file string) {
		rep, err := Explore(Options{Protocol: proto, Seeds: ciSeeds, Shrink: true})
		if err != nil {
			t.Fatal(err)
		}
		f := findingFor(rep, oracle)
		if f == nil || f.Minimal == nil {
			t.Logf("%s: no shrunk %s finding; %s left as recorded", proto, oracle, file)
			return
		}
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, f.Minimal.Trace(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d txns, faults %v)", file, f.Minimal.Schedule.Txns, f.Minimal.Schedule.Faults)
	}
	gen(Proto3PC, OracleAtomicity, goldenNaive)
	gen(Proto2PC, OracleProgress, golden2PC)
	res, err := Run(goldenSchedule(t, goldenUnsafeTerm))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Logf("%s runs clean; left as recorded", goldenUnsafeTerm)
		return
	}
	if err := os.WriteFile(goldenUnsafeTerm, res.Trace(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenSchedule reads the schedule a checked-in trace replays.
func goldenSchedule(t *testing.T, file string) Schedule {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseTrace(data)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return rec.Schedule
}

func findingFor(rep *Report, oracle string) *Finding {
	for i := range rep.Findings {
		if violates(rep.Findings[i].Violations, oracle) {
			return &rep.Findings[i]
		}
	}
	return nil
}

func violates(vs []Violation, oracle string) bool {
	for _, v := range vs {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// TestParseTraceRejectsUnknownFields: a trace naming a field the format
// does not have — a retired schedule field or a misspelt one — is refused
// rather than replayed as some other run.
func TestParseTraceRejectsUnknownFields(t *testing.T) {
	res, err := Run(Schedule{Protocol: Proto3PC, Seed: 1, Txns: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := string(res.Trace())
	const at = `"protocol": "3pc",`
	if !strings.Contains(trace, at) {
		t.Fatalf("trace has no %s", at)
	}
	for _, tc := range []struct {
		name, field string
		ok          bool
	}{
		{"recorded", "", true},
		{"retired underlock", `"underlock": true,`, false},
		{"retired lock wait", `"lockWait": true,`, false},
		{"retired canonical order", `"canonicalLockOrder": true,`, false},
		{"typo for shards", `"shard": 2,`, false},
		{"unknown top-level", `"bogus": 1,`, false},
	} {
		data := strings.Replace(trace, at, at+tc.field, 1)
		if tc.name == "unknown top-level" {
			data = strings.Replace(trace, "{", "{"+tc.field, 1)
		}
		_, err := ParseTrace([]byte(data))
		if (err == nil) != tc.ok {
			t.Errorf("%s: ParseTrace error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
