package thesis

import (
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"speccat/internal/core/speclang"
)

// corpusEnv elaborates the corpus once per test binary (proofs included).
// sync.Once keeps the lazy initialization safe under t.Parallel and -race.
var (
	corpusOnce sync.Once
	corpusEnv  *speclang.Env
	corpusErr  error
)

func env(t *testing.T) *speclang.Env {
	t.Helper()
	corpusOnce.Do(func() { corpusEnv, corpusErr = Corpus() })
	if corpusErr != nil {
		t.Fatalf("corpus failed to elaborate: %v", corpusErr)
	}
	return corpusEnv
}

func TestCorpusElaborates(t *testing.T) {
	e := env(t)
	for _, row := range Table31() {
		if _, err := e.Spec(row.SpecName); err != nil {
			t.Errorf("block spec %s: %v", row.SpecName, err)
		}
	}
	for _, name := range []string{"PR1", "PR2", "PR3", "PR4", "PR5", "PR6", "PR7", "PR8", "PR9"} {
		if _, err := e.Spec(name); err != nil {
			t.Errorf("composite %s: %v", name, err)
		}
	}
}

func TestCorpusProofsRan(t *testing.T) {
	e := env(t)
	for _, p := range []string{"p1", "p2", "p3", "p4", "p5"} {
		v, ok := e.Lookup(p)
		if !ok {
			t.Fatalf("proof %s missing", p)
		}
		if v.Kind != speclang.KindProof {
			t.Fatalf("%s is not a proof (kind %d)", p, v.Kind)
		}
		if v.Proof.Stats.ProofLength < 3 {
			t.Errorf("%s suspiciously short: %d steps", p, v.Proof.Stats.ProofLength)
		}
	}
}

func TestProveAllGlobalProperties(t *testing.T) {
	e := env(t)
	for _, prop := range GlobalProperties() {
		res, err := ProveProperty(e, prop)
		if err != nil {
			t.Errorf("property %s: %v", prop, err)
			continue
		}
		if res.Proof == nil || res.Proof.Stats.ProofLength == 0 {
			t.Errorf("property %s: empty proof", prop)
		}
		// Every proof must end in the empty clause.
		last := res.Proof.Proof[len(res.Proof.Proof)-1]
		if !last.Clause.IsEmpty() {
			t.Errorf("property %s: proof does not end in empty clause", prop)
		}
	}
}

func TestModularProofUsesOnlyListedAxioms(t *testing.T) {
	e := env(t)
	res, err := ProveProperty(e, "Serialize")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"~Serialize": true}
	for _, ax := range res.UsingAxioms {
		allowed[ax] = true
	}
	for _, step := range res.Proof.Proof {
		if step.Rule == "input" && !allowed[step.Origin] {
			t.Errorf("proof used unlisted input %s", step.Origin)
		}
	}
}

func TestMonolithicProofAlsoSucceeds(t *testing.T) {
	e := env(t)
	res, err := ProveMonolithic(e, "Serialize")
	if err != nil {
		t.Fatal(err)
	}
	if res.Proof.Stats.InputClauses == 0 {
		t.Fatal("no input clauses")
	}
	// The monolithic run sees at least as many input clauses as the
	// modular run — that gap is the E9 ablation's measurement.
	mod, err := ProveProperty(e, "Serialize")
	if err != nil {
		t.Fatal(err)
	}
	if res.Proof.Stats.InputClauses < mod.Proof.Stats.InputClauses {
		t.Errorf("monolithic input clauses %d < modular %d",
			res.Proof.Stats.InputClauses, mod.Proof.Stats.InputClauses)
	}
}

func TestSequentialDivisions(t *testing.T) {
	e := env(t)
	d1, err := SequentialDivision1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 5 || d1[len(d1)-1].Name != "PR4" {
		t.Fatalf("division 1 = %+v", d1)
	}
	d2, err := SequentialDivision2(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2) != 6 || d2[len(d2)-1].Name != "PR9" {
		t.Fatalf("division 2 = %+v", d2)
	}
	// Composite growth is monotone along each chain: every step carries
	// all parent axioms plus the new block's.
	for i := 1; i < len(d1); i++ {
		if d1[i].Axioms < d1[i-1].Axioms {
			t.Errorf("division 1 axiom count shrank at %s", d1[i].Name)
		}
	}
	for i := 1; i < len(d2); i++ {
		if d2[i].Axioms < d2[i-1].Axioms {
			t.Errorf("division 2 axiom count shrank at %s", d2[i].Name)
		}
	}
}

func TestVerifyCommutations(t *testing.T) {
	e := env(t)
	reports, err := VerifyCommutations(e)
	if err != nil {
		t.Fatal(err)
	}
	// CONTROLLER + PR1..PR9 + GM (the reuse demo) = 11 corpus colimits.
	if len(reports) != 11 {
		t.Fatalf("commutation reports = %d, want 11 (%v)", len(reports), reports)
	}
}

func TestTheoremTraceability(t *testing.T) {
	e := env(t)
	// The theorems must propagate up the chains (backward traceability):
	// Serialize lives in PR2 and stays visible in PR3, PR4.
	cases := []struct {
		composite, theorem string
		want               bool
	}{
		{"PR2", "Serialize", true},
		{"PR3", "Serialize", true},
		{"PR4", "Serialize", true},
		{"PR4", "RBR", true},
		{"PR6", "CSM", true},
		{"PR9", "BackupElection", true},
		{"PR1", "Serialize", false}, // not yet composed with 2PL
		{"PR5", "CSM", false},       // not yet composed with decision making
	}
	for _, tc := range cases {
		got, err := SubsumesTheorem(e, tc.composite, tc.theorem)
		if err != nil {
			t.Errorf("%s/%s: %v", tc.composite, tc.theorem, err)
			continue
		}
		if got != tc.want {
			t.Errorf("SubsumesTheorem(%s, %s) = %v, want %v", tc.composite, tc.theorem, got, tc.want)
		}
	}
}

func TestTable31Complete(t *testing.T) {
	rows := Table31()
	// Eleven building blocks; broadcast and consensus appear as sub-rows
	// 1.1/1.2 of the controller, as in the paper's table.
	if len(rows) != 12 {
		t.Fatalf("Table 3.1 rows = %d, want 12", len(rows))
	}
	e := env(t)
	for _, row := range rows {
		if len(row.Requirements) == 0 {
			t.Errorf("block %s has no requirements", row.Name)
		}
		if _, err := e.Spec(row.SpecName); err != nil {
			t.Errorf("block %s: spec %s: %v", row.Name, row.SpecName, err)
		}
		// Package names real code: a directory of the module (the test
		// runs two levels below its root) holding non-test Go files.
		files, _ := filepath.Glob(filepath.Join("..", "..", row.Package, "*.go"))
		if !slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			t.Errorf("block %s: package %s holds no non-test Go files", row.Name, row.Package)
		}
		if row.Code == "" {
			t.Errorf("block %s names no code in %s", row.Name, row.Package)
		}
	}
}

func TestReuseGroupMembership(t *testing.T) {
	// The thesis's reusability claim: the pretested controller module
	// composes into a different protocol (group membership), and its
	// view-agreement property proves from the same broadcast/consensus
	// axioms the 3PC proofs used.
	e := env(t)
	gm, err := e.Spec("GM")
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range []string{"Agreebroad", "Agreeconsensus", "InstallFromDecision", "ProposalShared"} {
		if _, ok := gm.FindAxiom(ax); !ok {
			t.Errorf("GM missing axiom %s", ax)
		}
	}
	if _, ok := gm.FindTheorem("ViewAgreement"); !ok {
		t.Fatal("GM missing ViewAgreement")
	}
	v, ok := e.Lookup("p5")
	if !ok || v.Kind != speclang.KindProof {
		t.Fatal("p5 proof missing")
	}
}

func TestCorpusWithoutProofs(t *testing.T) {
	e, err := CorpusWithoutProofs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Spec("PR9"); err != nil {
		t.Fatal(err)
	}
}
