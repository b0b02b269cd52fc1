package thesis

import (
	"strings"
	"testing"

	"speccat/internal/core/prover"
	"speccat/internal/core/speclang"
)

func renderResult(r *prover.Result) string {
	var b strings.Builder
	for _, s := range r.Proof {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// corpusProofRenderings collects the rendered refutations of p1..p5 from an
// elaborated environment, keyed by statement name.
func corpusProofRenderings(t *testing.T, e *speclang.Env) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, p := range []string{"p1", "p2", "p3", "p4", "p5"} {
		v, ok := e.Lookup(p)
		if !ok || v.Kind != speclang.KindProof || v.Proof == nil {
			t.Fatalf("%s: proof missing (kind=%v)", p, v.Kind)
		}
		out[p] = renderResult(v.Proof)
	}
	return out
}

// TestCorpusParallelMatchesSequential runs the corpus through the
// scheduler at 1, 4, and 8 workers and requires verdicts, rendered proofs,
// and environment name order to be bit-identical to Corpus() at every
// pool size.
func TestCorpusParallelMatchesSequential(t *testing.T) {
	seq := env(t)
	seqNames := strings.Join(seq.Names(), " ")
	seqProofs := corpusProofRenderings(t, seq)

	for _, workers := range []int{1, 4, 8} {
		par, results, err := CorpusParallel(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := strings.Join(par.Names(), " "); got != seqNames {
			t.Errorf("workers=%d: env name order differs\nseq: %s\npar: %s", workers, seqNames, got)
		}
		if len(results) != 5 {
			t.Fatalf("workers=%d: results = %d, want 5", workers, len(results))
		}
		// Results must come back in corpus source order (the corpus states
		// p3 before p2), regardless of completion interleaving.
		for i, r := range results {
			want := []string{"p1", "p3", "p2", "p4", "p5"}[i]
			if r.Obligation.Name != want {
				t.Errorf("workers=%d: result %d is %s, want %s", workers, i, r.Obligation.Name, want)
			}
			if r.Err != nil {
				t.Errorf("workers=%d: %s failed: %v", workers, r.Obligation.Name, r.Err)
			}
		}
		for p, want := range seqProofs {
			got := corpusProofRenderings(t, par)[p]
			if got != want {
				t.Errorf("workers=%d: %s proof differs from Corpus()", workers, p)
			}
		}
	}
}

// TestCorpusParallelExperimentArtifacts ties the E4/E5/E6 artifacts to the
// corpus: for every global property, the proof ProveProperty returns must
// be the proof Corpus() bound to the prove statement of that theorem,
// rendered step for step and stat for stat (timing excluded — a clock
// reading, not a verdict). ProveProperty holds no axiom list of its own, so
// this is what keeps it discharging the corpus statement.
func TestCorpusParallelExperimentArtifacts(t *testing.T) {
	seq := env(t)
	obs, err := Obligations()
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := CorpusParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	stmts := map[string]bool{}
	for _, prop := range GlobalProperties() {
		res, err := ProveProperty(par, prop)
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		for _, ob := range obs {
			if ob.Theorem != prop {
				continue
			}
			stmts[ob.Name] = true
			bound, _ := seq.Lookup(ob.Name)
			if res.Composite != ob.In || strings.Join(res.UsingAxioms, " ") != strings.Join(ob.Using, " ") {
				t.Errorf("%s: proved in %s using %v, corpus states %s using %v", prop, res.Composite, res.UsingAxioms, ob.In, ob.Using)
			}
			if renderResult(res.Proof) != renderResult(bound.Proof) {
				t.Errorf("%s: ProveProperty's proof differs from the %s proof Corpus() bound", prop, ob.Name)
			}
			got, want := res.Proof.Stats, bound.Proof.Stats
			got.Elapsed, want.Elapsed = 0, 0
			if got != want {
				t.Errorf("%s: proof stats differ: %+v vs %+v", prop, got, want)
			}
		}
	}
	if len(stmts) != 4 || !stmts["p1"] || !stmts["p2"] || !stmts["p3"] || !stmts["p4"] {
		t.Errorf("global properties matched statements %v, want p1..p4", stmts)
	}
}

// TestObligationsMatchCorpus pins the DAG annotation of the corpus's five
// prove statements.
func TestObligationsMatchCorpus(t *testing.T) {
	obs, err := Obligations()
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 5 {
		t.Fatalf("obligations = %d, want 5", len(obs))
	}
	wantNames := []string{"p1", "p3", "p2", "p4", "p5"} // corpus source order
	for i, ob := range obs {
		if ob.Name != wantNames[i] {
			t.Errorf("obligation %d = %s, want %s", i, ob.Name, wantNames[i])
		}
		if ob.Depth == 0 {
			t.Errorf("%s: depth 0 — composites should sit above the DAG roots", ob.Name)
		}
		if len(ob.Deps) == 0 {
			t.Errorf("%s: empty dependency closure", ob.Name)
		}
	}
}
