// Package thesis encodes the paper's case study: the eleven building blocks
// of the non-blocking three-phase commit protocol (Table 3.1), the two
// sequential-division composition chains PR1..PR4 and PR5..PR9
// (Figs. 3.4/3.5), and the three global properties — Serializability of
// Transactions, Consistent State Maintenance, and Roll-Back Recovery —
// proved compositionally from sub-protocol axioms (Ch. 4–5).
//
// The corpus is written in the project's Specware-like language
// (corpus.sw, embedded) and elaborated in strict mode, so every composition
// step and every proof in the thesis is mechanically re-checked by this
// package's tests and by cmd/tpcverify.
package thesis

import (
	_ "embed"
	"errors"
	"fmt"
	"slices"

	"speccat/internal/core/prover"
	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
)

//go:embed corpus.sw
var corpusSrc string

// ErrCorpus is wrapped when the embedded corpus fails to elaborate.
var ErrCorpus = errors.New("thesis: corpus error")

// Corpus elaborates the embedded clean corpus in strict mode, running all
// composition steps, and discharges the five prove statements (p1..p5) on
// one worker.
func Corpus() (*speclang.Env, error) {
	env, _, err := CorpusParallel(1)
	return env, err
}

// CorpusWithoutProofs elaborates the corpus and leaves its prove
// statements undischarged, for callers that only need the specification
// pipeline (compositions/chains).
func CorpusWithoutProofs() (*speclang.Env, error) {
	env, err := speclang.Run(corpusSrc, speclang.Options{})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorpus, err)
	}
	return env, nil
}

// Obligations extracts the corpus's prove statements (p1..p5) annotated
// with their spec-dependency closure and DAG depth, in source order.
func Obligations() ([]provesched.Obligation, error) {
	obs, err := provesched.Extract(corpusSrc)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorpus, err)
	}
	return obs, nil
}

// CorpusParallel elaborates the corpus, discharges the prove statements
// on a pool of the given number of workers (<= 0 means GOMAXPROCS) and
// binds each proof into the environment under its statement name. The
// environment and the results, which are in corpus source order, carry
// bit-identical proofs at any worker count.
func CorpusParallel(workers int) (*speclang.Env, []provesched.Result, error) {
	env, results, err := (&provesched.Scheduler{Workers: workers}).Verify(corpusSrc, speclang.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorpus, err)
	}
	return env, results, nil
}

// PropertyResult is the outcome of establishing one global property.
type PropertyResult struct {
	// Property is the global property name (theorem name).
	Property string
	// Composite is the PRn spec that satisfies the property.
	Composite string
	// UsingAxioms are the sub-protocol properties the proof used; nil for
	// the monolithic proof.
	UsingAxioms []string
	// Proof is the resolution refutation.
	Proof *prover.Result
}

// GlobalProperties names the three thesis global properties plus the
// sequential-division-2 functionality, in thesis order. The corpus's
// prove statements p1..p4 state them; p5 (ViewAgreement) is the reuse
// demonstration, not a property of 3PC.
func GlobalProperties() []string {
	return []string{"Serialize", "CSM", "RBR", "BackupElection"}
}

// ProveProperty discharges the corpus prove statement for the named
// global property against env: the modular proof, from the sub-protocol
// axioms the statement lists.
func ProveProperty(env *speclang.Env, theorem string) (*PropertyResult, error) {
	return discharge(env, theorem, false)
}

// ProveMonolithic proves the named property from the full axiom set of its
// composite spec — the "flat" verification a non-modular approach would
// run. It is the same obligation with its using list cleared. Used by the
// E9 ablation.
func ProveMonolithic(env *speclang.Env, theorem string) (*PropertyResult, error) {
	return discharge(env, theorem, true)
}

func discharge(env *speclang.Env, theorem string, monolithic bool) (*PropertyResult, error) {
	obs, err := Obligations()
	if err != nil {
		return nil, err
	}
	i := slices.IndexFunc(obs, func(ob provesched.Obligation) bool { return ob.Theorem == theorem })
	if i < 0 || !slices.Contains(GlobalProperties(), theorem) {
		return nil, fmt.Errorf("%w: unknown property %s", ErrCorpus, theorem)
	}
	ob := obs[i]
	if monolithic {
		ob.Using = nil
	}
	r := (&provesched.Scheduler{Workers: 1}).Run(env, []provesched.Obligation{ob})[0]
	if r.Err != nil {
		return nil, r.Err
	}
	return &PropertyResult{Property: ob.Theorem, Composite: ob.In, UsingAxioms: ob.Using, Proof: r.Proof}, nil
}

// ChainStep describes one composition step in a sequential division.
type ChainStep struct {
	// Name is the resulting composite (PRn or CONTROLLER).
	Name string
	// Parents are the two composed sub-protocols.
	Parents [2]string
	// Sorts, Ops, Axioms, Theorems count the apex contents.
	Sorts, Ops, Axioms, Theorems int
}

// chain definitions matching Figs. 3.4 and 3.5.
var (
	division1 = [][3]string{ //lint:allow noglobalstate immutable transcription of Fig. 3.4
		{"CONTROLLER", "BROADCAST", "CONSENSUS"},
		{"PR1", "CONTROLLER", "UNDOREDO"},
		{"PR2", "PR1", "TWOPHASELOCK"},
		{"PR3", "PR2", "CHECKPOINTING"},
		{"PR4", "PR3", "RECOVERY"},
	}
	division2 = [][3]string{ //lint:allow noglobalstate immutable transcription of Fig. 3.5
		{"CONTROLLER", "BROADCAST", "CONSENSUS"},
		{"PR5", "CONTROLLER", "SNAPSHOT"},
		{"PR6", "PR5", "DECISIONMAKING"},
		{"PR7", "PR6", "TERMINATION"},
		{"PR8", "PR7", "VOTING"},
		{"PR9", "PR8", "FAILUREMGMT"},
	}
)

// SequentialDivision1 reports the composition chain of Fig. 3.4:
// controller → undo/redo logging → two-phase locking → checkpointing →
// recovery, yielding PR1..PR4.
func SequentialDivision1(env *speclang.Env) ([]ChainStep, error) {
	return chainSteps(env, division1)
}

// SequentialDivision2 reports the composition chain of Fig. 3.5:
// controller → snapshot → decision making → termination → voting →
// failure management, yielding PR5..PR9.
func SequentialDivision2(env *speclang.Env) ([]ChainStep, error) {
	return chainSteps(env, division2)
}

func chainSteps(env *speclang.Env, defs [][3]string) ([]ChainStep, error) {
	out := make([]ChainStep, 0, len(defs))
	for _, d := range defs {
		s, err := env.Spec(d[0])
		if err != nil {
			return nil, err
		}
		// Both parents must exist and be subsumed by the composite: every
		// parent axiom appears in the child (the thesis's "child satisfies
		// the properties of both parents").
		for _, parent := range d[1:] {
			ps, err := env.Spec(parent)
			if err != nil {
				return nil, err
			}
			for _, ax := range ps.Axioms {
				if _, ok := s.FindAxiom(ax.Name); !ok {
					return nil, fmt.Errorf("%w: %s lost parent %s axiom %s", ErrCorpus, d[0], parent, ax.Name)
				}
			}
		}
		out = append(out, ChainStep{
			Name:     d[0],
			Parents:  [2]string{d[1], d[2]},
			Sorts:    len(s.Sig.Sorts),
			Ops:      len(s.Sig.Ops),
			Axioms:   len(s.Axioms),
			Theorems: len(s.Theorems),
		})
	}
	return out, nil
}

// CommutationReport verifies, for every colimit in the corpus, that the
// cocone commutes with its diagram (the correctness condition the thesis
// states for each composed module).
type CommutationReport struct {
	Colimit string
	Nodes   int
	Arcs    int
}

// VerifyCommutations re-checks every colimit's commuting property.
func VerifyCommutations(env *speclang.Env) ([]CommutationReport, error) {
	var out []CommutationReport
	for _, name := range env.Names() {
		v, _ := env.Lookup(name)
		if v.Kind != speclang.KindColimit {
			continue
		}
		// Find the source diagram: by corpus convention it is <name>DIAG,
		// except the thesis-style aliases; fall back to scanning.
		diag := findDiagramFor(env, name)
		if diag == nil {
			return nil, fmt.Errorf("%w: no diagram found for colimit %s", ErrCorpus, name)
		}
		if err := v.Cocone.VerifyCommutes(diag.Diagram); err != nil {
			return nil, fmt.Errorf("colimit %s: %w", name, err)
		}
		out = append(out, CommutationReport{
			Colimit: name,
			Nodes:   len(diag.Diagram.Nodes()),
			Arcs:    len(diag.Diagram.Arcs()),
		})
	}
	return out, nil
}

func findDiagramFor(env *speclang.Env, colimitName string) *speclang.Value {
	if v, ok := env.Lookup(colimitName + "DIAG"); ok && v.Kind == speclang.KindDiagram {
		return v
	}
	return nil
}

// SubsumesTheorem reports whether the named composite carries the theorem,
// i.e. the colimit propagated the property statement (traceability).
func SubsumesTheorem(env *speclang.Env, composite, theorem string) (bool, error) {
	s, err := env.Spec(composite)
	if err != nil {
		return false, err
	}
	_, ok := s.FindTheorem(theorem)
	return ok, nil
}
