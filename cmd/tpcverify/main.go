// Command tpcverify runs the reproduction suite of DESIGN.md and prints
// each regenerated artifact. -only selects experiments by name:
//
//	e1        Table 3.1: the building blocks of 3PC
//	e2, e3    Figs. 3.4/3.5: the two sequential-division colimit chains
//	e2b       Figs. 4.3–4.8: module-level composition
//	e4,e5,e6  proofs p1..p3: serializability, consistent state, roll-back recovery
//	e7        Fig. 3.2: the model-checked non-blocking theorem
//	e8        Fig. 3.1: end-to-end 3PC vs 2PC under a coordinator crash (-seed, -txns)
//	e9        modular vs monolithic verification ablation
//	e10       assumption-violation matrix
//	e11       proof axioms observed on the served engine, with their ablations
//	e14       corpus proofs on a worker pool (-workers)
//	e15       static durcheck plus the staged crash-at-dissemination schedule, then the unsafe termination mutant
//	e16, e17  live-goroutine and TCP runs replayed deterministically
//	e18       commutativity-derived lock modes: conflict rates, the underlock mutant
//	e19       sharded group-committed commit path: conformance and fsync bill
//	e20       static lockcheck: the 2PL discipline of every lock call site
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"speccat/internal/conformance"
	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/experiments"
	"speccat/internal/explore"
	"speccat/internal/mutant"
	"speccat/internal/thesis"
	"speccat/internal/tpc"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment list (e.g. e1,e7); empty = all")
	seed := flag.Int64("seed", 2026, "simulation seed for E8/E10")
	txns := flag.Int("txns", 30, "transactions for E8")
	workers := flag.Int("workers", 1, "discharge the corpus proofs (p1..p5) on this many workers (0 = GOMAXPROCS); verdicts are bit-identical to -workers 1")
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToLower(*only), ",") {
		if e = strings.TrimSpace(e); e != "" {
			want[e] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	if _, err := run(sel, *seed, *txns, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "tpcverify:", err)
		os.Exit(1)
	}
}

// run prints the selected experiments and returns the corpus discharge
// they printed from. The corpus is elaborated only when an experiment
// reads it, and discharged — once — only when one prints proofs; E9's
// monolithic proofs are the only other prover work.
func run(sel func(string) bool, seed int64, txns, workers int) (proofs []provesched.Result, err error) {
	anyOf := func(names ...string) bool { return slices.ContainsFunc(names, sel) }
	var env *speclang.Env
	switch {
	case anyOf("e4", "e5", "e6", "e9", "e14"):
		env, proofs, err = thesis.CorpusParallel(workers)
	case anyOf("e1", "e2", "e3", "e2b"):
		env, err = thesis.CorpusWithoutProofs()
	}
	if err != nil {
		return nil, err
	}

	if sel("e1") {
		fmt.Println("== E1: Table 3.1 — building blocks of 3PC ==")
		rows, err := experiments.E1Table31(env)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%-4s %-38s %-15s %-20s %4s %4s  %s\n", "id", "building block", "spec", "package", "reqs", "axms", "code")
		for _, r := range rows {
			fmt.Printf("%-4s %-38s %-15s %-20s %4d %4d  %s\n", r.ID, r.Name, r.SpecName, r.Package, len(r.Requirements), r.Axioms, r.Code)
		}
		fmt.Println()
	}

	if sel("e2") {
		fmt.Println("== E2: Fig. 3.4 — sequential division 1 (recovery tower) ==")
		if err := printChain(experiments.E2SeqDivision1(env)); err != nil {
			return nil, err
		}
	}
	if sel("e3") {
		fmt.Println("== E3: Fig. 3.5 — sequential division 2 (election tower) ==")
		if err := printChain(experiments.E3SeqDivision2(env)); err != nil {
			return nil, err
		}
	}

	if anyOf("e2b", "e2") {
		fmt.Println("== E2b: Figs. 4.3–4.8 — module-level composition (PAR/EXP/IMP/BOD) ==")
		steps, final, err := thesis.ComposeSerializabilityTower(env)
		if err != nil {
			return nil, err
		}
		for _, s := range steps {
			fmt.Printf("  %-8s = %s ∘ %s  (body: %d sorts, %d ops; square commutes: %v)\n",
				s.Name, s.Left, s.Right, s.BodySorts, s.BodyOps, s.Verified)
		}
		fmt.Printf("  final module: %s\n\n", final)
	}

	if anyOf("e4", "e5", "e6") {
		fmt.Println("== E4/E5/E6: global property proofs (thesis p1, p2, p3) ==")
		for _, r := range experiments.E456Proofs(proofs) {
			fmt.Printf("  %-15s in %-4s: %2d proof steps, %4d clauses generated, %8v  using %v\n",
				r.Obligation.Theorem, r.Obligation.In, r.Proof.Stats.ProofLength, r.Proof.Stats.Generated,
				r.Proof.Stats.Elapsed.Round(10_000), r.Obligation.Using)
		}
		fmt.Println()
	}

	if sel("e7") {
		fmt.Println("== E7: Fig. 3.2 — model-checked non-blocking theorem (2 cohorts, 1 crash) ==")
		rows, err := experiments.E7ModelCheck(2)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			verdict := "atomic"
			if !r.Atomic {
				verdict = "ATOMICITY VIOLATED (" + r.Witness + ")"
			}
			blocking := "non-blocking"
			if r.Blocking > 0 {
				blocking = fmt.Sprintf("BLOCKING (%d states)", r.Blocking)
			}
			fmt.Printf("  %-36s %6d states %7d transitions: %s, %s\n",
				r.Label, r.States, r.Transitions, verdict, blocking)
		}
		fmt.Println()
	}

	if sel("e8") {
		fmt.Println("== E8: Fig. 3.1 — end-to-end distributed transactions, coordinator crash mid-run ==")
		for _, p := range []tpc.Protocol{tpc.ThreePhase, tpc.TwoPhase} {
			r, err := experiments.E8Distributed(seed, txns, p)
			if err != nil {
				return nil, err
			}
			fmt.Printf("  %-4s: %d txns → %d committed, %d aborted, %d undecided; mean decision latency %.1f ticks; %.1f msgs/txn; %d branches holding locks during the crash window\n",
				r.Protocol, r.Transactions, r.Committed, r.Aborted, r.Undecided, r.MeanLatency, r.MessagesPerTxn, r.BlockedAtProbe)
		}
		fmt.Println()
	}

	if sel("e9") {
		fmt.Println("== E9: ablation — modular vs monolithic verification ==")
		rows, err := experiments.E9Ablation(env, proofs)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  %-15s %18s %18s %14s\n", "property", "inputs mod/mono", "clauses mod/mono", "time mod/mono")
		for _, r := range rows {
			fmt.Printf("  %-15s %8d/%-9d %8d/%-9d %6v/%-8v\n",
				r.Property, r.ModularInputs, r.MonolithicInputs,
				r.ModularGenerated, r.MonolithicGenerated,
				r.ModularElapsed.Round(10_000), r.MonolithicElapsed.Round(10_000))
		}
		fmt.Println()
	}

	if sel("e10") {
		fmt.Println("== E10: assumption-violation matrix ==")
		rows, err := experiments.E10FailureInjection()
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			verdict := "invariant holds"
			if !r.Holds {
				verdict = "INVARIANT BREAKS"
			}
			fmt.Printf("  %-32s %-36s %-18s %s\n", r.Assumption, r.Probe, verdict, r.Detail)
		}
		fmt.Println()
	}

	if sel("e14") {
		fmt.Println("== E14: parallel proof pipeline — corpus obligations on a worker pool ==")
		fmt.Printf("  %-4s %-15s %-4s %5s %8s %6s %9s %10s\n",
			"stmt", "theorem", "in", "depth", "premises", "steps", "generated", "elapsed")
		for _, r := range experiments.E14ParallelProofs(proofs) {
			fmt.Printf("  %-4s %-15s %-4s %5d %8d %6d %9d %10v\n",
				r.Obligation, r.Theorem, r.Composite, r.Depth, r.Premises,
				r.Steps, r.Generated, r.Elapsed.Round(10_000))
		}
		fmt.Println()
	}

	if sel("e15") {
		fmt.Println("== E15: durability cross-validation — static durcheck + staged crash schedule, on the served engine and the unsafe termination mutant ==")
		res, err := experiments.E15Durability([]int64{1, 2, 3})
		if err != nil {
			return nil, err
		}
		fmt.Printf("  static: %d findings over the module (%d roots, %d functions, %d requiring kinds, %d write summaries, %d volatiles)\n",
			res.Findings, res.Roots, res.Analyzed, res.Requires, res.Writes, res.Volatiles)
		if w := res.Witness; w != nil {
			fmt.Printf("  3pc WITNESS seed=%d faults=%d violates %s\n", w.Seed, len(w.Schedule.Faults), strings.Join(w.Violated, ","))
		} else {
			fmt.Println("  3pc survives the staged crash-at-dissemination schedule")
		}
		if err := printVerdicts(experiments.E15Ablation()); err != nil {
			return nil, err
		}
		fmt.Println()
	}

	if sel("e16") {
		fmt.Println("== E16: real-goroutine conformance — live run recorded and replayed deterministically ==")
		if err := printConformance(experiments.E16LiveConformance()); err != nil {
			return nil, err
		}
	}
	if sel("e17") {
		fmt.Println("== E17: TCP conformance — real-socket run recorded and replayed deterministically ==")
		if err := printConformance(experiments.E17TCPConformance()); err != nil {
			return nil, err
		}
	}

	if sel("e18") {
		fmt.Println("== E18: commutativity conformance — derived lock modes, conflict rates, underlock mutant ==")
		res, err := experiments.E18Commutativity([]int64{1, 2, 3, 4, 5})
		if err != nil {
			return nil, err
		}
		for _, r := range []experiments.E18Row{res.Exclusive, res.Commutative} {
			fmt.Printf("  %-16s seeds=%d txns/seed=%d: %4d committed, %4d aborted; conflict rate %.3f; %.2f commits/ktick; %s\n",
				r.Label, r.Seeds, r.Txns, r.Committed, r.Aborted, r.ConflictRate, r.Throughput, verdict(r.Violated, "oracles clean"))
		}
		fmt.Printf("  conflict-rate reduction: %.1f%% → %.1f%% on the same zipfian shape\n",
			100*res.Exclusive.ConflictRate, 100*res.Commutative.ConflictRate)
		fmt.Printf("  crash+recover sweep (%d seeds): %s\n", res.FaultedSeeds,
			verdict(res.FaultedViolated, "every oracle clean — committed increments survive via the WAL's logical fold"))
		if err := printVerdicts(experiments.E18Ablation()); err != nil {
			return nil, err
		}
		fmt.Println()
	}

	if sel("e19") {
		fmt.Println("== E19: sharded, group-committed commit path — conformance and fsync bill ==")
		res, err := experiments.E19ShardedCommit([]int64{1, 2, 3})
		if err != nil {
			return nil, err
		}
		for _, r := range []experiments.E19Row{res.Unsharded, res.Sharded} {
			fmt.Printf("  %-14s shards=%d seeds=%d txns/seed=%d: %4d committed, %3d aborted; %.2f commits/ktick; %4d syncs (%.2f/commit); %s\n",
				r.Label, r.Shards, r.Seeds, r.Txns, r.Committed, r.Aborted, r.Throughput, r.Syncs, r.SyncsPerCommit, verdict(r.Violated, "oracles clean"))
		}
		fmt.Printf("  crash-at-batch-boundary sweep (%d seeds): %s\n", res.CrashSeeds,
			verdict(res.CrashViolated, "every oracle clean — the synced prefix re-derives lost commit records on restart"))
		fmt.Println()
	}

	if sel("e20") {
		fmt.Println("== E20: lock discipline — static 2PL analysis ==")
		rep, findings, err := experiments.E20LockDiscipline()
		if err != nil {
			return nil, err
		}
		fmt.Printf("  static lockcheck over ./internal/...: %d findings; %d roots, %d functions analyzed, %d acquire / %d release sites, %d SyncThen continuations\n",
			findings, len(rep.Roots), rep.Analyzed, rep.AcquireSites, rep.ReleaseSites, rep.SyncThenSites)
		fmt.Println()
	}

	if sel("e11") {
		fmt.Println("== E11: axiom conformance — proof axioms observed on the served engine, 60 coordinator-crash runs ==")
		rows, err := conformance.CheckAll(explore.SeedRange(1, 60))
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Println()
	}
	return proofs, nil
}

// printVerdicts prints one line per mutant verdict.
func printVerdicts(vs []mutant.Verdict, err error) error {
	for _, v := range vs {
		fmt.Println("  " + v.String())
	}
	return err
}

// verdict renders a sweep's violated-oracle set, or clean when it is empty.
func verdict(violated []string, clean string) string {
	if len(violated) == 0 {
		return clean
	}
	return "VIOLATED " + strings.Join(violated, ",")
}

// printConformance prints one E16/E17 table: a row per protocol, with the
// wire's frame count where there is a wire.
func printConformance(rows []experiments.ConformanceRow, err error) error {
	if err != nil {
		return err
	}
	for _, r := range rows {
		frames := ""
		if r.FramesSent > 0 {
			frames = fmt.Sprintf(", %3d frames on the wire", r.FramesSent)
		}
		verdict := "CONFORMS"
		if !r.Agree() {
			verdict = fmt.Sprintf("DIVERGES (replay=%v durable=%v)", r.ReplayAgree, r.DurableAgree)
		}
		fmt.Printf("  %-4s %d txns, %3d deliveries traced%s: commit=%v abort=%v — %s\n",
			r.Protocol, r.Txns, r.Messages, frames,
			r.Decisions["t-commit"], r.Decisions["t-abort"], verdict)
	}
	fmt.Println()
	return nil
}

func printChain(steps []thesis.ChainStep, err error) error {
	if err != nil {
		return err
	}
	for _, s := range steps {
		fmt.Printf("  %-10s = %-10s + %-14s (%d sorts, %d ops, %d axioms, %d theorems)\n",
			s.Name, s.Parents[0], s.Parents[1], s.Sorts, s.Ops, s.Axioms, s.Theorems)
	}
	fmt.Println()
	return nil
}
