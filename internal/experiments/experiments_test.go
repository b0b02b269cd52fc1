package experiments

import (
	"sync"
	"testing"

	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/thesis"
	"speccat/internal/tpc"
)

// The corpus is elaborated and discharged once per test binary; sync.Once
// keeps the lazy initialization safe under t.Parallel and -race.
var (
	cachedOnce    sync.Once
	cachedEnv     *speclang.Env
	cachedResults []provesched.Result
	cachedErr     error
)

func corpus(t *testing.T) (*speclang.Env, []provesched.Result) {
	t.Helper()
	cachedOnce.Do(func() { cachedEnv, cachedResults, cachedErr = thesis.CorpusParallel(1) })
	if cachedErr != nil {
		t.Fatal(cachedErr)
	}
	return cachedEnv, cachedResults
}

func env(t *testing.T) *speclang.Env {
	t.Helper()
	e, _ := corpus(t)
	return e
}

func TestE1ShapesMatchTable31(t *testing.T) {
	rows, err := E1Table31(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Requirements) == 0 || r.Axioms == 0 || r.Package == "" {
			t.Errorf("incomplete row: %+v", r)
		}
	}
}

func TestE2E3Chains(t *testing.T) {
	d1, err := E2SeqDivision1(env(t))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := E3SeqDivision2(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if d1[len(d1)-1].Name != "PR4" || d2[len(d2)-1].Name != "PR9" {
		t.Fatalf("chain tails: %s, %s", d1[len(d1)-1].Name, d2[len(d2)-1].Name)
	}
}

func TestE456AllProofsDischarge(t *testing.T) {
	_, results := corpus(t)
	rows := E456Proofs(results)
	if len(rows) != 4 {
		t.Fatalf("proofs = %d", len(rows))
	}
	for _, r := range rows {
		if r.Proof.Stats.ProofLength == 0 || r.Proof.Stats.Generated == 0 {
			t.Errorf("degenerate proof: %+v", r)
		}
	}
}

func TestE7Verdicts(t *testing.T) {
	rows, err := E7ModelCheck(2)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]E7Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	full := byLabel["3PC (thesis assumptions)"]
	if !full.Atomic || full.Blocking != 0 {
		t.Errorf("3PC verdict wrong: %+v", full)
	}
	naive := byLabel["3PC naive timeouts, interleaved"]
	if naive.Atomic {
		t.Error("naive interleaved should violate atomicity")
	}
	twopc := byLabel["2PC"]
	if !twopc.Atomic || twopc.Blocking == 0 {
		t.Errorf("2PC verdict wrong: %+v", twopc)
	}
}

func TestE8ShapeMatchesPaper(t *testing.T) {
	r3, err := E8Distributed(2026, 20, tpc.ThreePhase)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := E8Distributed(2026, 20, tpc.TwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	// Non-blocking: 3PC never leaves branches holding locks in the crash
	// window; 2PC does.
	if r3.BlockedAtProbe != 0 {
		t.Errorf("3PC blocked branches = %d", r3.BlockedAtProbe)
	}
	if r2.BlockedAtProbe == 0 {
		t.Error("2PC shows no blocking — comparison lost its point")
	}
	// Cost: 3PC pays more messages per transaction (extra phase).
	if r3.MessagesPerTxn <= r2.MessagesPerTxn {
		t.Errorf("3PC msgs/txn %.1f not above 2PC %.1f", r3.MessagesPerTxn, r2.MessagesPerTxn)
	}
	if r3.Committed == 0 || r2.Committed == 0 {
		t.Error("no commits")
	}
}

func TestE9MonolithicNeverCheaper(t *testing.T) {
	rows, err := E9Ablation(corpus(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MonolithicInputs < r.ModularInputs {
			t.Errorf("%s: monolithic inputs %d < modular %d", r.Property, r.MonolithicInputs, r.ModularInputs)
		}
		if r.MonolithicGenerated < r.ModularGenerated {
			t.Errorf("%s: monolithic generated %d < modular %d", r.Property, r.MonolithicGenerated, r.ModularGenerated)
		}
	}
}

func TestE14ParallelProofsDeterministic(t *testing.T) {
	_, results := corpus(t)
	one := E14ParallelProofs(results)
	_, results, err := thesis.CorpusParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	four := E14ParallelProofs(results)
	if len(one) != 5 || len(four) != 5 {
		t.Fatalf("rows = %d / %d, want 5", len(one), len(four))
	}
	for i := range one {
		a, b := one[i], four[i]
		// Everything but Elapsed (a clock reading) must match across pool
		// sizes.
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			t.Errorf("row %d differs across worker counts:\n1: %+v\n4: %+v", i, a, b)
		}
		if a.Steps == 0 || a.Generated == 0 || a.Premises == 0 {
			t.Errorf("degenerate row: %+v", a)
		}
	}
}

func TestE10MatrixShape(t *testing.T) {
	rows, err := E10FailureInjection()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("probes = %d", len(rows))
	}
	// Safety must survive the first three probes; the beyond-tolerance
	// probe must break.
	for i, r := range rows {
		wantHolds := i != 3
		if r.Holds != wantHolds {
			t.Errorf("probe %q: holds = %v, want %v", r.Probe, r.Holds, wantHolds)
		}
	}
}

// TestE15Durability pins the served half: durcheck is clean over real
// coverage, and the staged schedule finds no witness against the
// write-ahead engine. The unsafe termination mutant's verdicts are pinned by
// internal/mutant's TestCatalogue.
func TestE15Durability(t *testing.T) {
	res, err := E15Durability([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Findings != 0 {
		t.Errorf("static findings = %d, want a write-ahead-clean tree", res.Findings)
	}
	if res.Roots == 0 || res.Requires == 0 || res.Writes == 0 || res.Volatiles == 0 || res.Analyzed < 20 {
		t.Errorf("coverage collapsed: %+v", res)
	}
	if res.Witness != nil {
		t.Errorf("witness against the write-ahead engine: %+v", res.Witness)
	}
}
