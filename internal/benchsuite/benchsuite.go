// Package benchsuite holds the benchmark bodies shared by the root
// `go test -bench` harness and the cmd/specbench regression driver, plus
// the machine-readable report schema both emit (BENCH_<date>.json).
//
// Keeping the bodies here means the two entry points time exactly the same
// code paths: one benchmark per evaluation experiment E0..E10 (DESIGN.md's
// index) and a sequential-vs-parallel pair over the corpus's five proof
// obligations (E14).
package benchsuite

import (
	"sync"
	"testing"

	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/experiments"
	"speccat/internal/explore"
	"speccat/internal/thesis"
	"speccat/internal/tpc"
)

// corpus is elaborated once per process (proofs skipped: benchmarks re-run
// them); sync.Once keeps the lazy initialization safe under b.RunParallel
// and -race.
var (
	corpusOnce sync.Once               //lint:allow noglobalstate once-guard for the corpus cache
	corpusEnv  *speclang.Env           //lint:allow noglobalstate written once under corpusOnce, immutable after
	corpusObs  []provesched.Obligation //lint:allow noglobalstate written once under corpusOnce, immutable after
	corpusErr  error                   //lint:allow noglobalstate written once under corpusOnce, immutable after
)

func corpus(b *testing.B) (*speclang.Env, []provesched.Obligation) {
	b.Helper()
	corpusOnce.Do(func() {
		corpusEnv, corpusErr = thesis.CorpusWithoutProofs()
		if corpusErr == nil {
			corpusObs, corpusErr = thesis.Obligations()
		}
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpusEnv, corpusObs
}

// Bench is one named benchmark body.
type Bench struct {
	// Name is the benchmark name without the "Benchmark" prefix.
	Name string
	// Fn is the body; it must call b.ReportAllocs itself if it wants
	// allocation figures (all suite bodies do).
	Fn func(b *testing.B)
}

// Suite returns the full benchmark list in experiment order. The two
// CorpusProve entries are the E14 measurement: same obligations, worker
// pool of one versus GOMAXPROCS.
func Suite() []Bench {
	return []Bench{
		{"E0_CorpusElaboration", benchCorpusElaboration},
		{"E1_Table31_BuildingBlocks", benchTable31},
		{"E2_Fig34_SeqDivision1", benchSeqDivision1},
		{"E3_Fig35_SeqDivision2", benchSeqDivision2},
		{"E4_Fig42_Serializability", proofBench("Serialize")},
		{"E5_Fig410_ConsistentState", proofBench("CSM")},
		{"E6_Fig418_RollbackRecovery", proofBench("RBR")},
		{"E7_Fig32_ModelCheck3PC", benchModelCheck},
		{"E8_Fig31_DistributedTxn_3PC", distributedBench(tpc.ThreePhase)},
		{"E8_Fig31_DistributedTxn_2PC", distributedBench(tpc.TwoPhase)},
		{"E9_Ablation_Modular", benchAblationModular},
		{"E9_Ablation_Monolithic", benchAblationMonolithic},
		{"E10_FailureInjection", benchFailureInjection},
		{"E18_ZipfMix_ExclusiveWrites", zipfMixBench(1.0)},
		{"E18_ZipfMix_IncTransfers", zipfMixBench(0)},
		{"E19_CommitPath_Unsharded", commitPathBench(1, false)},
		{"E19_CommitPath_ShardedGroup", commitPathBench(4, true)},
		{"E14_CorpusProve_Sequential", CorpusProveBench(1)},
		{"E14_CorpusProve_Parallel", CorpusProveBench(0)},
	}
}

// Lookup returns the named suite benchmark.
func Lookup(name string) (Bench, bool) {
	for _, bm := range Suite() {
		if bm.Name == name {
			return bm, true
		}
	}
	return Bench{}, false
}

func benchCorpusElaboration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := thesis.CorpusWithoutProofs(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable31(b *testing.B) {
	env, _ := corpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E1Table31(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func benchSeqDivision1(b *testing.B) {
	env, _ := corpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2SeqDivision1(env); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSeqDivision2(b *testing.B) {
	env, _ := corpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3SeqDivision2(env); err != nil {
			b.Fatal(err)
		}
	}
}

// proofBench times one global-property proof (Figs. 4.2/4.10/4.18).
func proofBench(property string) func(*testing.B) {
	return func(b *testing.B) {
		env, _ := corpus(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := thesis.ProveProperty(env, property)
			if err != nil {
				b.Fatal(err)
			}
			if res.Proof.Stats.ProofLength == 0 {
				b.Fatal("empty proof")
			}
		}
	}
}

func benchModelCheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E7ModelCheck(2)
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Atomic || rows[0].Blocking != 0 {
			b.Fatal("3PC model-check failed")
		}
	}
}

func distributedBench(kind tpc.Protocol) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := experiments.E8Distributed(int64(i)+1, 20, kind)
			if err != nil {
				b.Fatal(err)
			}
			if r.Committed == 0 {
				b.Fatal("nothing committed")
			}
		}
	}
}

func benchAblationModular(b *testing.B) {
	env, _ := corpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prop := range thesis.GlobalProperties() {
			if _, err := thesis.ProveProperty(env, prop); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchAblationMonolithic(b *testing.B) {
	env, _ := corpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prop := range thesis.GlobalProperties() {
			if _, err := thesis.ProveMonolithic(env, prop); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// zipfMixBench runs the E18 zipfian update shape under one locking
// regime per iteration — writeFraction 1.0 is blind exclusive writes,
// 0 the equivalent commutative increment-transfers — and reports the
// regime's conflict rate and commit throughput as custom metrics next to
// ns/op, so the commutativity win (and any mode-matrix regression that
// erodes it) is tracked by the same BENCH_<date>.json tooling as the
// timing numbers.
func zipfMixBench(writeFraction float64) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		row, err := experiments.E18Sweep("bench", explore.SeedRange(1, b.N), writeFraction)
		if err != nil {
			b.Fatal(err)
		}
		if len(row.Violated) != 0 {
			b.Fatalf("oracle violations: %v", row.Violated)
		}
		if row.Committed == 0 {
			b.Fatal("nothing committed")
		}
		b.ReportMetric(row.ConflictRate, "conflict-rate")
		b.ReportMetric(row.Throughput, "commits/ktick")
	}
}

// commitPathBench runs the E19 cross-partition shape through one commit-path
// configuration per iteration — unsharded monolithic store versus 4-way
// hash shards with group-committed journal syncs — and reports commit
// throughput and the per-commit fsync bill as custom metrics next to
// ns/op, so a regression in either the sharded routing layer or the
// divergence-rule sync points shows up in the same BENCH_<date>.json
// tooling as the timing numbers.
func commitPathBench(shards int, group bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		row, err := experiments.E19Sweep("bench", explore.SeedRange(1, b.N), shards, group)
		if err != nil {
			b.Fatal(err)
		}
		if len(row.Violated) != 0 {
			b.Fatalf("oracle violations: %v", row.Violated)
		}
		if row.Committed == 0 {
			b.Fatal("nothing committed")
		}
		b.ReportMetric(row.Throughput, "commits/ktick")
		if group {
			b.ReportMetric(row.SyncsPerCommit, "syncs/commit")
		}
	}
}

func benchFailureInjection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10FailureInjection(); err != nil {
			b.Fatal(err)
		}
	}
}

// CorpusProveBench times discharging all five corpus proof obligations on
// a pool of the given size (<= 0 means GOMAXPROCS). Each iteration uses a
// fresh clause cache so sequential and parallel arms do identical total
// work — the measured difference is pure scheduling.
func CorpusProveBench(workers int) func(*testing.B) {
	return func(b *testing.B) {
		env, obs := corpus(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := &provesched.Scheduler{Workers: workers}
			for _, r := range s.Run(env, obs) {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Obligation.Name, r.Err)
				}
			}
		}
	}
}
