// Command speccat processes specification files written in the project's
// Specware-like language: it parses, elaborates, composes (translate /
// morphism / diagram / colimit) and proves, printing each named value as
// it is produced.
//
// Usage:
//
//	speccat [-lenient] [-skip-proofs] [-j workers] [-print name] file.sw...
package main

import (
	"flag"
	"fmt"
	"os"

	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
)

func main() {
	lenient := flag.Bool("lenient", false, "tolerate unknown symbols (auto-declare) and unbound identifiers")
	skipProofs := flag.Bool("skip-proofs", false, "record prove statements without running the prover")
	jobs := flag.Int("j", 1, "discharge prove statements on this many workers (0 = GOMAXPROCS); results are bit-identical to -j 1")
	printName := flag.String("print", "", "print the named value after elaboration")
	quiet := flag.Bool("q", false, "suppress the per-statement summary")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: speccat [-lenient] [-skip-proofs] [-j workers] [-print name] file.sw...")
		os.Exit(2)
	}
	code := 0
	for _, path := range flag.Args() {
		if err := processFile(path, *lenient, *skipProofs, *jobs, *printName, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "speccat: %s: %v\n", path, err)
			code = 1
		}
	}
	os.Exit(code)
}

func processFile(path string, lenient, skipProofs bool, jobs int, printName string, quiet bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	env, err := elaborate(string(src), lenient, skipProofs, jobs)
	if err != nil {
		return err
	}
	if !quiet {
		for _, name := range env.Names() {
			v, _ := env.Lookup(name)
			fmt.Printf("%-28s %s\n", name, describe(v))
		}
	}
	if printName != "" {
		v, ok := env.Lookup(printName)
		if !ok {
			return fmt.Errorf("no value named %s", printName)
		}
		fmt.Println(render(v))
	}
	return nil
}

// elaborate runs the pipeline: elaboration alone under -skip-proofs,
// which leaves every prove statement as its placeholder, else elaboration
// plus discharge on jobs workers (internal/core/provesched).
func elaborate(src string, lenient, skipProofs bool, jobs int) (*speclang.Env, error) {
	opts := speclang.Options{Lenient: lenient}
	if skipProofs {
		return speclang.Run(src, opts)
	}
	env, _, err := (&provesched.Scheduler{Workers: jobs}).Verify(src, opts)
	return env, err
}

func describe(v *speclang.Value) string {
	switch v.Kind {
	case speclang.KindSpec:
		return fmt.Sprintf("spec (%d sorts, %d ops, %d axioms, %d theorems)",
			len(v.Spec.Sig.Sorts), len(v.Spec.Sig.Ops), len(v.Spec.Axioms), len(v.Spec.Theorems))
	case speclang.KindColimit:
		return fmt.Sprintf("colimit (%d sorts, %d ops, %d axioms, %d theorems)",
			len(v.Spec.Sig.Sorts), len(v.Spec.Sig.Ops), len(v.Spec.Axioms), len(v.Spec.Theorems))
	case speclang.KindMorphism:
		return fmt.Sprintf("morphism %s -> %s", v.Morphism.Source.Name, v.Morphism.Target.Name)
	case speclang.KindDiagram:
		return fmt.Sprintf("diagram (%d nodes, %d arcs)", len(v.Diagram.Nodes()), len(v.Diagram.Arcs()))
	case speclang.KindProof:
		return fmt.Sprintf("proved (%d steps, %d clauses, %v)",
			v.Proof.Stats.ProofLength, v.Proof.Stats.Generated, v.Proof.Stats.Elapsed)
	default:
		return "text"
	}
}

func render(v *speclang.Value) string {
	switch v.Kind {
	case speclang.KindSpec, speclang.KindColimit:
		return v.Spec.String()
	case speclang.KindMorphism:
		return v.Morphism.String()
	case speclang.KindProof:
		out := ""
		for _, s := range v.Proof.Proof {
			out += s.String() + "\n"
		}
		return out
	default:
		return v.Text
	}
}
