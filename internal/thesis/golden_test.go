package thesis

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"speccat/internal/core/prover"
	"speccat/internal/core/speclang"
)

// -update regenerates testdata/proofs.golden. Proof search is
// deterministic, so the file changes only when the prover's search order
// or the corpus changes; a change that claims to leave proofs alone must
// pass against the golden unedited.
var update = flag.Bool("update", false, "regenerate testdata/proofs.golden")

const goldenPath = "testdata/proofs.golden"

// renderGolden renders one proof section: a header, the search counters
// (not Elapsed, a clock reading), and the refutation step by step.
func renderGolden(b *strings.Builder, header string, r *prover.Result) {
	s := r.Stats
	fmt.Fprintf(b, "== %s\ninput=%d generated=%d retained=%d iterations=%d length=%d\n",
		header, s.InputClauses, s.Generated, s.Retained, s.Iterations, s.ProofLength)
	b.WriteString(renderResult(r))
}

// TestProofsMatchGolden pins every proof the corpus derives — p1..p5 on
// one worker and on four, and the three monolithic proofs of E9 — to the
// checked-in rendering, refutation and counters alike. Regenerate with
// `go test ./internal/thesis -run TestProofsMatchGolden -update`.
func TestProofsMatchGolden(t *testing.T) {
	seq := env(t)
	par, _, err := CorpusParallel(4)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, run := range []struct {
		name string
		env  *speclang.Env
	}{{"corpus", seq}, {"parallel4", par}} {
		for _, p := range []string{"p1", "p2", "p3", "p4", "p5"} {
			v, ok := run.env.Lookup(p)
			if !ok || v.Proof == nil {
				t.Fatalf("%s %s: proof missing", run.name, p)
			}
			renderGolden(&b, run.name+" "+p, v.Proof)
		}
	}
	for _, th := range []string{"Serialize", "CSM", "RBR"} {
		res, err := ProveMonolithic(seq, th)
		if err != nil {
			t.Fatalf("monolithic %s: %v", th, err)
		}
		renderGolden(&b, "monolithic "+th, res.Proof)
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "(end of golden)"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("proofs differ from %s at line %d:\ngot:  %s\nwant: %s", goldenPath, i+1, gl[i], w)
		}
	}
	t.Fatalf("proofs differ from %s: the golden has %d more lines", goldenPath, len(wl)-len(gl))
}
