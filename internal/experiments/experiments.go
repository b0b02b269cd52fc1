// Package experiments implements the reproduction experiments (E1..E10,
// the E14 parallel proof pipeline, the E15 durability cross-validation)
// catalogued in DESIGN.md, one function per experiment, returning
// structured results that cmd/tpcverify renders and the root benchmarks
// time. Each experiment regenerates one of the paper's artifacts (a table,
// a figure's composition chain, a proof, or a claim made in prose).
package experiments

import (
	"fmt"
	"time"

	"speccat/internal/analysis"
	"speccat/internal/analysis/durcheck"
	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/mc"
	"speccat/internal/mutant"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/thesis"
	"speccat/internal/tpc"
	"speccat/internal/txn"
	"speccat/internal/workload"
)

// E1Row is one row of the regenerated Table 3.1: the building block and
// the number of axioms its corpus spec carries.
type E1Row struct {
	thesis.BuildingBlock
	Axioms int
}

// E1Table31 regenerates Table 3.1 against the elaborated corpus.
func E1Table31(env *speclang.Env) ([]E1Row, error) {
	var out []E1Row
	for _, b := range thesis.Table31() {
		s, err := env.Spec(b.SpecName)
		if err != nil {
			return nil, err
		}
		out = append(out, E1Row{b, len(s.Axioms)})
	}
	return out, nil
}

// E2SeqDivision1 regenerates the Fig. 3.4 chain.
func E2SeqDivision1(env *speclang.Env) ([]thesis.ChainStep, error) {
	return thesis.SequentialDivision1(env)
}

// E3SeqDivision2 regenerates the Fig. 3.5 chain.
func E3SeqDivision2(env *speclang.Env) ([]thesis.ChainStep, error) {
	return thesis.SequentialDivision2(env)
}

// E456Proofs picks the compositional proofs of the three thesis global
// properties (p1, p2, p3) plus the division-2 functionality, in thesis
// order, out of one corpus discharge (thesis.CorpusParallel's results,
// which are in source order and carry p5 too).
func E456Proofs(results []provesched.Result) []provesched.Result {
	var out []provesched.Result
	for _, prop := range thesis.GlobalProperties() {
		for _, r := range results {
			if r.Obligation.Theorem == prop {
				out = append(out, r)
			}
		}
	}
	return out
}

// E7Row is one model-checking configuration's outcome.
type E7Row struct {
	Label       string
	States      int
	Transitions int
	Atomic      bool
	Witness     string
	Blocking    int
}

// E7ModelCheck model-checks the non-blocking theorem across the protocol
// variants and assumption sets.
func E7ModelCheck(cohorts int) ([]E7Row, error) {
	configs := []struct {
		label   string
		variant mc.Variant
		opts    mc.ModelOptions
	}{
		{"3PC (thesis assumptions)", mc.Model3PC, mc.ModelOptions{Lockstep: true, AllowRecovery: true}},
		{"3PC naive timeouts, lockstep", mc.Model3PCNaive, mc.ModelOptions{Lockstep: true, AllowRecovery: true}},
		{"3PC naive timeouts, interleaved", mc.Model3PCNaive, mc.ModelOptions{}},
		{"3PC interleaved + indep. recovery", mc.Model3PC, mc.ModelOptions{AllowRecovery: true}},
		{"2PC", mc.Model2PC, mc.ModelOptions{Lockstep: true}},
	}
	var out []E7Row
	for _, c := range configs {
		sys := mc.NewCommitModel(c.variant, cohorts, 1, c.opts)
		res, err := mc.Explore(sys, []mc.Invariant{mc.InvariantAtomicity(cohorts)},
			mc.Options{TerminalOK: mc.TerminalAllDecided(cohorts)})
		if err != nil {
			return nil, err
		}
		row := E7Row{
			Label: c.label, States: res.States, Transitions: res.Transitions,
			Atomic: true, Blocking: len(res.Deadlocks),
		}
		if w, bad := res.Violations["atomicity"]; bad {
			row.Atomic = false
			row.Witness = w
		}
		out = append(out, row)
	}
	return out, nil
}

// E8Result summarizes the end-to-end distributed-transaction comparison.
type E8Result struct {
	Protocol     tpc.Protocol
	Transactions int
	Committed    int
	Aborted      int
	Undecided    int
	MeanLatency  float64 // ticks per decided txn
	// BlockedAtProbe counts local branches still open (locks held) shortly
	// after the coordinator crash — the blocking-window measurement.
	BlockedAtProbe int
	MessagesPerTxn float64
}

// E8Distributed runs a transfer workload through the full stack with a
// coordinator crash mid-run, for both protocols.
func E8Distributed(seed int64, transactions int, protocol tpc.Protocol) (*E8Result, error) {
	cluster, err := txn.NewCluster(seed, 3, tpc.Config{Protocol: protocol})
	if err != nil {
		return nil, err
	}
	gen := workload.New(workload.Config{
		Kind: workload.Transfers, Accounts: 9, InitialBalance: 100,
		Transactions: transactions, Seed: seed,
	}, cluster.SiteFor)

	res := &E8Result{Protocol: protocol, Transactions: transactions}
	run := func(name string, ops []txn.Op) (tpc.Decision, sim.Time) {
		start := cluster.Net.Scheduler().Now()
		var decided tpc.Decision
		var at sim.Time
		if err := cluster.Master.Submit(name, ops, func(r *txn.Result) {
			decided = r.Decision
			at = cluster.Net.Scheduler().Now()
		}); err != nil {
			return tpc.DecisionNone, 0
		}
		// Bound each transaction so a blocked 2PC run terminates.
		cluster.Net.Scheduler().RunUntil(start + 4000)
		return decided, at - start
	}

	if d, _ := run("setup", gen.SetupOps()); d != tpc.DecisionCommit {
		return nil, fmt.Errorf("setup failed: %s", d)
	}

	ledger := workload.NewLedger(gen)
	var totalLatency sim.Time
	crashAtTxn := transactions / 2
	sentBefore, _, _ := cluster.Net.Stats()
	sched := cluster.Net.Scheduler()
	for i, wt := range gen.Generate() {
		if !wt.IsTransfer {
			continue
		}
		ops, undo := ledger.Fill(wt, 5)
		if i == crashAtTxn {
			// Mid-run master crash in this transaction's voting phase, once
			// its first site voted yes. Probe the blocking window (open
			// branches = held locks) before recovering the master.
			if err := cluster.Master.Submit(wt.Name, ops, nil); err != nil {
				return nil, err
			}
			for cluster.Sites[ops[0].Site].StateOf(wt.Name) != tpc.StateWait && sched.Step() {
			}
			_ = cluster.Net.Crash(cluster.MasterID)
			sched.RunUntil(sched.Now() + 800)
			for _, site := range cluster.Sites {
				res.BlockedAtProbe += site.Store.OpenTxns()
			}
			if err := cluster.Net.Recover(cluster.MasterID); err != nil {
				return nil, err
			}
			// E8's published msgs/txn include this second announcement round.
			if err := cluster.Master.RecoverCoordinator(); err != nil {
				return nil, err
			}
			sched.RunUntil(sched.Now() + 800)
			switch cluster.Master.Decision(wt.Name) {
			case tpc.DecisionCommit:
				res.Committed++
			case tpc.DecisionAbort:
				res.Aborted++
				undo()
			default:
				res.Undecided++
				undo()
			}
			continue
		}
		d, lat := run(wt.Name, ops)
		switch d {
		case tpc.DecisionCommit:
			res.Committed++
			totalLatency += lat
		case tpc.DecisionAbort:
			res.Aborted++
			totalLatency += lat
			undo()
		default:
			res.Undecided++
			undo()
		}
	}
	if n := res.Committed + res.Aborted; n > 0 {
		res.MeanLatency = float64(totalLatency) / float64(n)
	}
	sentAfter, _, _ := cluster.Net.Stats()
	res.MessagesPerTxn = float64(sentAfter-sentBefore) / float64(transactions)
	return res, nil
}

// E9Row contrasts the modular proof with the monolithic one.
type E9Row struct {
	Property            string
	ModularInputs       int
	MonolithicInputs    int
	ModularGenerated    int
	MonolithicGenerated int
	ModularElapsed      time.Duration
	MonolithicElapsed   time.Duration
}

// E9Ablation measures the thesis's headline claim: compositional
// verification does less prover work than flat verification. The modular
// side is read out of the corpus discharge; only the monolithic proofs
// run here.
func E9Ablation(env *speclang.Env, results []provesched.Result) ([]E9Row, error) {
	var out []E9Row
	for _, mod := range E456Proofs(results) {
		mono, err := thesis.ProveMonolithic(env, mod.Obligation.Theorem)
		if err != nil {
			return nil, err
		}
		out = append(out, E9Row{
			Property:            mod.Obligation.Theorem,
			ModularInputs:       mod.Proof.Stats.InputClauses,
			MonolithicInputs:    mono.Proof.Stats.InputClauses,
			ModularGenerated:    mod.Proof.Stats.Generated,
			MonolithicGenerated: mono.Proof.Stats.Generated,
			ModularElapsed:      mod.Proof.Stats.Elapsed,
			MonolithicElapsed:   mono.Proof.Stats.Elapsed,
		})
	}
	return out, nil
}

// E10Row is one assumption-violation probe.
type E10Row struct {
	Assumption string
	Probe      string
	Holds      bool
	Detail     string
}

// E10FailureInjection violates each load-bearing assumption in turn and
// reports which protocol invariant breaks.
func E10FailureInjection() ([]E10Row, error) {
	var out []E10Row

	// Probe 1: reliable network (assumption 2) — drop messages and watch
	// commit availability collapse while atomicity holds.
	{
		g, err := groupWithOptions(11, 3, tpc.Config{}, simnet.Options{MinDelay: 1, MaxDelay: 10, FIFO: true, DropRate: 0.4})
		if err != nil {
			return nil, err
		}
		_ = g.Coordinator.Begin("t")
		g.Net.Scheduler().Run(0)
		o := g.Outcome("t")
		out = append(out, E10Row{
			Assumption: "reliable network (no loss)",
			Probe:      "40% message drop",
			Holds:      o.Atomic(),
			Detail:     fmt.Sprintf("outcome coord=%s (atomic=%v; commits rarely succeed)", o.Coordinator, o.Atomic()),
		})
	}

	// Probe 2: FIFO channels (assumption 1) — the commit engines key
	// messages by transaction, so reordering within one txn is absorbed
	// and 3PC still terminates.
	{
		g, err := groupWithOptions(13, 3, tpc.Config{}, simnet.Options{MinDelay: 1, MaxDelay: 25, FIFO: false})
		if err != nil {
			return nil, err
		}
		_ = g.Coordinator.Begin("t")
		g.Net.Scheduler().Run(0)
		o := g.Outcome("t")
		out = append(out, E10Row{
			Assumption: "FIFO channels",
			Probe:      "non-FIFO delivery",
			Holds:      o.Atomic() && o.Coordinator != tpc.DecisionNone,
			Detail:     fmt.Sprintf("coord=%s", o.Coordinator),
		})
	}

	// Probe 3: synchrony bound (assumption 6) — deliveries slower than
	// the timeout make the coordinator abort live cohorts: safety holds,
	// availability (commit) is lost.
	{
		g, err := groupWithOptions(17, 3, tpc.Config{PhaseTimeout: 8}, simnet.Options{MinDelay: 10, MaxDelay: 30, FIFO: true})
		if err != nil {
			return nil, err
		}
		_ = g.Coordinator.Begin("t")
		g.Net.Scheduler().Run(0)
		o := g.Outcome("t")
		out = append(out, E10Row{
			Assumption: "synchronous timeout bound",
			Probe:      "delays exceed phase timeout",
			Holds:      o.Atomic(),
			Detail:     fmt.Sprintf("coord=%s (aborts under false timeouts, stays atomic)", o.Coordinator),
		})
	}

	// Probe 4: single-failure tolerance — two simultaneous failures with
	// naive timeouts break atomicity in the abstract model (shown by E7);
	// in the executable engine the termination protocol still copes with
	// coordinator+cohort crashes at these points, so we report the model
	// checker's verdict.
	{
		sys := mc.NewCommitModel(mc.Model3PCNaive, 2, 2, mc.ModelOptions{AllowRecovery: true})
		res, err := mc.Explore(sys, []mc.Invariant{mc.InvariantAtomicity(2)}, mc.Options{})
		if err != nil {
			return nil, err
		}
		_, bad := res.Violations["atomicity"]
		out = append(out, E10Row{
			Assumption: "at most one failure",
			Probe:      "crash budget 2, naive timeouts (model)",
			Holds:      !bad,
			Detail:     fmt.Sprintf("%d states explored", res.States),
		})
	}
	return out, nil
}

// E14Row is one scheduled proof obligation from the parallel pipeline.
type E14Row struct {
	// Obligation is the corpus statement name (p1..p5).
	Obligation string
	// Theorem and Composite identify the goal and the spec it lives in.
	Theorem   string
	Composite string
	// Depth is the obligation's height in the spec-dependency DAG.
	Depth int
	// Premises counts the axioms handed to the prover.
	Premises int
	// Steps and Generated are the refutation's length and total derived
	// clauses — identical at any worker count.
	Steps, Generated int
	// Elapsed is this obligation's own search time (timing, not verdict).
	Elapsed time.Duration
}

// E14ParallelProofs reports the corpus's five proof obligations as the
// worker pool discharged them (thesis.CorpusParallel's results), one row
// per obligation in corpus source order. The verdicts and proof shapes
// are bit-identical at every worker count; only Elapsed varies.
func E14ParallelProofs(results []provesched.Result) []E14Row {
	out := make([]E14Row, 0, len(results))
	for _, r := range results {
		out = append(out, E14Row{
			Obligation: r.Obligation.Name,
			Theorem:    r.Obligation.Theorem,
			Composite:  r.Obligation.In,
			Depth:      r.Obligation.Depth,
			Premises:   len(r.Obligation.Using),
			Steps:      r.Proof.Stats.ProofLength,
			Generated:  r.Proof.Stats.Generated,
			Elapsed:    r.Proof.Stats.Elapsed,
		})
	}
	return out
}

// groupWithOptions is tpc.NewGroup with custom network options.
func groupWithOptions(seed int64, n int, cfg tpc.Config, opts simnet.Options) (*tpc.Group, error) {
	sched := sim.NewScheduler(seed)
	net := simnet.New(sched, opts)
	return tpc.NewGroupOn(net, n, cfg)
}

// loadInternal type-checks ./internal/... of the module in the working
// directory — the tree the static halves of E15 and E20 analyze.
func loadInternal() ([]*analysis.Package, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	return loader.Load([]string{"./internal/..."})
}

// E15Result is the static durcheck summary over this module and the
// staged crash-at-dissemination schedule's verdict on its 3PC engine.
type E15Result struct {
	// Findings is the static finding count over ./internal/... — zero on
	// a write-ahead-clean tree.
	Findings int
	// Roots, Analyzed, Requires, Writes and Volatiles summarize analysis
	// coverage: handler roots, functions flow-analyzed, annotated
	// requiring kinds, durable-write summaries and volatile objects. A
	// clean run over nothing would prove nothing.
	Roots, Analyzed, Requires, Writes, Volatiles int
	// Witness is the staged schedule's oracle violation against the served
	// engine, nil when the engine survives it.
	Witness *durcheck.CrossValidation
}

// E15Durability closes the static→dynamic loop from DESIGN.md S30 on the
// served tree: run the durcheck write-ahead/durability-ordering analysis
// over the module (expected clean, with real coverage), then aim the
// staged crash-at-dissemination schedule the analysis would generate for a
// hoisted-commit finding at the write-ahead 3PC engine (expected to
// survive). E15Ablation runs both halves on the unsafe termination mutant.
func E15Durability(seeds []int64) (*E15Result, error) {
	pkgs, err := loadInternal()
	if err != nil {
		return nil, err
	}
	rep, diags := durcheck.Run(pkgs)
	witness, err := durcheck.CrossValidate(tpc.KindCommit, seeds)
	if err != nil {
		return nil, err
	}
	return &E15Result{
		Findings:  len(diags),
		Roots:     len(rep.Roots),
		Analyzed:  rep.Analyzed,
		Requires:  len(rep.Requires),
		Writes:    len(rep.Writes),
		Volatiles: len(rep.Volatiles),
		Witness:   witness,
	}, nil
}

// E15Ablation judges the unsafe termination mutant — the backup
// disseminates its decision before it persists it — on the dur lint layer
// and on the staged schedule (durcheck's negative control, seeds
// 1–3): the static findings and the dynamic witness on the same source.
func E15Ablation() ([]mutant.Verdict, error) {
	return mutant.Judge([]string{"unsafe termination"}, "speccatlint -only dur", "TestCrossValidateNegativeControl")
}
