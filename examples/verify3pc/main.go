// Command verify3pc reruns the thesis's entire verification, end to end:
// it elaborates the clean corpus (eleven building blocks, the PR1..PR9
// composition chains of Figs. 3.4/3.5), proves the three global properties
// compositionally (Serialize, CSM, RBR — the thesis's p1/p2/p3), verifies
// every colimit commutes, and model-checks the non-blocking theorem on the
// abstract 3PC/2PC state spaces.
package main

import (
	"fmt"
	"os"

	"speccat/internal/mc"
	"speccat/internal/thesis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verify3pc:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== elaborating corpus (building blocks + composition chains) ==")
	env, err := thesis.CorpusWithoutProofs()
	if err != nil {
		return err
	}

	fmt.Println("\n== sequential division 1 (Fig. 3.4): recovery tower ==")
	d1, err := thesis.SequentialDivision1(env)
	if err != nil {
		return err
	}
	for _, step := range d1 {
		fmt.Printf("  %-10s = %s + %s  (%d sorts, %d ops, %d axioms, %d theorems)\n",
			step.Name, step.Parents[0], step.Parents[1], step.Sorts, step.Ops, step.Axioms, step.Theorems)
	}

	fmt.Println("\n== sequential division 2 (Fig. 3.5): election tower ==")
	d2, err := thesis.SequentialDivision2(env)
	if err != nil {
		return err
	}
	for _, step := range d2 {
		fmt.Printf("  %-10s = %s + %s  (%d sorts, %d ops, %d axioms, %d theorems)\n",
			step.Name, step.Parents[0], step.Parents[1], step.Sorts, step.Ops, step.Axioms, step.Theorems)
	}

	fmt.Println("\n== colimit commutation checks ==")
	reports, err := thesis.VerifyCommutations(env)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Printf("  %-10s cocone commutes (%d nodes, %d arcs) ✓\n", r.Colimit, r.Nodes, r.Arcs)
	}

	fmt.Println("\n== global properties (thesis proofs p1..p3 + division-2 functionality) ==")
	for _, prop := range thesis.GlobalProperties() {
		res, err := thesis.ProveProperty(env, prop)
		if err != nil {
			return err
		}
		fmt.Printf("  %-15s in %-4s: proved in %d steps from %v (%.2fms, %d clauses)\n",
			res.Property, res.Composite, res.Proof.Stats.ProofLength, res.UsingAxioms,
			float64(res.Proof.Stats.Elapsed.Microseconds())/1000, res.Proof.Stats.Generated)
	}

	fmt.Println("\n== model checking the non-blocking theorem (2 cohorts, 1 crash) ==")
	type row struct {
		variant mc.Variant
		opts    mc.ModelOptions
		label   string
	}
	rows := []row{
		{mc.Model3PC, mc.ModelOptions{Lockstep: true, AllowRecovery: true}, "3PC, thesis assumptions"},
		{mc.Model3PCNaive, mc.ModelOptions{Lockstep: true, AllowRecovery: true}, "3PC naive timeouts, lockstep"},
		{mc.Model3PCNaive, mc.ModelOptions{}, "3PC naive timeouts, interleaved"},
		{mc.Model3PC, mc.ModelOptions{AllowRecovery: true}, "3PC, interleaved + indep. recovery"},
		{mc.Model2PC, mc.ModelOptions{Lockstep: true}, "2PC"},
	}
	for _, r := range rows {
		sys := mc.NewCommitModel(r.variant, 2, 1, r.opts)
		res, err := mc.Explore(sys, []mc.Invariant{mc.InvariantAtomicity(2)},
			mc.Options{TerminalOK: mc.TerminalAllDecided(2)})
		if err != nil {
			return err
		}
		status := "safe"
		if w, bad := res.Violations["atomicity"]; bad {
			status = "ATOMICITY VIOLATION (witness " + w + ")"
		}
		blocking := "non-blocking"
		if len(res.Deadlocks) > 0 {
			blocking = fmt.Sprintf("BLOCKING (%d stuck states)", len(res.Deadlocks))
		}
		fmt.Printf("  %-36s %6d states: %s, %s\n", r.label, res.States, status, blocking)
	}

	fmt.Println("\nAll thesis results reproduced.")
	return nil
}
