package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricTableMatchesBenchmarkJSON pins the contract: BENCHMARK.json
// names exactly the workloads and metrics this program prints, with the
// same units.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, specs []metricSpec, defs []metricDef) {
		if len(specs) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(specs), len(defs))
		}
		for i, m := range specs {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], metrics.go %s [%s]",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better=%q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestStreamIsSeededAndConflictFree(t *testing.T) {
	a, b, other := newStream(7, 0, ""), newStream(7, 0, ""), newStream(8, 0, "")
	lastUse := map[int]int{}
	same := true
	for i := 0; i < 3*accountsPerConn; i++ {
		ta, tb, to := a.gen(), b.gen(), other.gen()
		if ta != tb {
			t.Fatalf("transaction %d differs between two streams of one seed: %+v vs %+v", i, ta, tb)
		}
		if ta.from != to.from || ta.kind != to.kind {
			same = false
		}
		if ta.from == ta.to {
			t.Fatalf("transaction %d uses account %d twice", i, ta.from)
		}
		for _, acct := range []int{ta.from, ta.to} {
			if last, ok := lastUse[acct]; ok && i-last < accountsPerConn/2 {
				t.Fatalf("account %d reused after %d transactions", acct, i-last)
			}
			lastUse[acct] = i
		}
		a.commit(ta)
		b.commit(tb)
	}
	if same {
		t.Error("two seeds produced the same stream")
	}
	var total int64
	for _, bal := range a.balance {
		total += bal
	}
	if total != accountsPerConn*initialBalance {
		t.Errorf("the model does not conserve the sum: %d", total)
	}
}

func TestQuantiles(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if got := median(vals); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %g", got)
	}
	if got := quantile(vals, 0.99); got != 5 {
		t.Errorf("p99 = %g", got)
	}
	if got := quantile(vals, 0.5); got != 3 {
		t.Errorf("p50 = %g", got)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestParseDoneAndWorseBy(t *testing.T) {
	out := parseDone("DONE c0t1 COMMIT 2/c0.a5=990 3/c0.a9=1010")
	if !out.committed || out.reads["c0.a5"] != "990" || out.reads["c0.a9"] != "1010" {
		t.Errorf("parseDone: %+v", out)
	}
	if parseDone("DONE c0t1 ABORT").committed {
		t.Error("an ABORT parsed as committed")
	}
	if w := worseBy(100, 120, "lower"); w < 0.199 || w > 0.201 {
		t.Errorf("worseBy lower = %g", w)
	}
	if w := worseBy(100, 80, "higher"); w < 0.199 || w > 0.201 {
		t.Errorf("worseBy higher = %g", w)
	}
}

// runTiny runs one workload at tiny counts and checks what every run must
// satisfy.
func runTiny(t *testing.T, env *environment, name string, trace bool) *result {
	t.Helper()
	res, err := runWorkload(env, name, runConfig{seed: 3, seconds: 1, trace: trace, tiny: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", name, res.Correct, res.Attempted, res.Failed, strings.Join(res.Problems, "; "))
	}
	want := endToEndMetrics
	if trace {
		want = perLayerMetrics
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s is not printed", name, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, d.name, m.Value)
		}
	}
	return res
}

// TestSmoke runs every workload at tiny counts, and one traced run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke test boots real tpcserve processes")
	}
	env, err := newEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	for _, name := range workloadNames {
		res := runTiny(t, env, name, false)
		if name == "durable_closed" {
			if _, ok := res.Extras["restart_s"]; !ok {
				t.Error("durable_closed: the restart phase did not run")
			}
		}
	}

	res := runTiny(t, env, "durable_closed", true)
	if v := res.Metrics["tpc.timers_fired_per_txn"].Value; v != 0 {
		t.Errorf("tpc.timers_fired_per_txn = %g on a fault-free cluster", v)
	}
	for _, name := range []string{"tcp.frames_per_txn", "tpc.msgs_per_txn", "stable.syncs_per_txn", "codec.encode_us", "tcp.wire_us", "stable.fsync_us", "sim.msgs_per_commit", "budget.accounted_share"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g in a traced durable run", name, res.Metrics[name].Value)
		}
	}
	ids := map[int64]bool{}
	for _, s := range res.Spans {
		if s.ID == 0 || ids[s.ID] {
			t.Fatalf("span id %d is zero or repeated", s.ID)
		}
		ids[s.ID] = true
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	if len(res.Spans) == 0 {
		t.Fatal("the traced run recorded no spans")
	}
	for _, s := range res.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) names parent %d, which is not in the trace", s.ID, s.Name, s.Parent)
		}
	}

	// Two result files of the same code agree with themselves.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	e2e := runTiny(t, env, "mem_closed", false)
	if err := e2e.writeFile(path); err != nil {
		t.Fatal(err)
	}
	ok, err := agreeCmd(path, path)
	if err != nil || !ok {
		t.Errorf("a result does not agree with itself: ok=%v err=%v", ok, err)
	}
}
