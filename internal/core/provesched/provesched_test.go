package provesched

import (
	"errors"
	"strings"
	"testing"

	"speccat/internal/core/prover"
	"speccat/internal/core/speclang"
)

// testSrc is a miniature corpus: a root spec, an importing spec, and a
// colimit, each carrying a provable theorem.
const testSrc = `
A = spec
sort S
op P : S -> Boolean
op Q : S -> Boolean
axiom PA is fa(x:S) P(x)
axiom PQ is fa(x:S) P(x) => Q(x)
theorem QA is fa(x:S) Q(x)
endspec

B = spec
import A
op R : S -> Boolean
axiom QR is fa(x:S) Q(x) => R(x)
theorem RA is fa(x:S) R(x)
endspec

BDIAG = diagram {
a ++> A,
b ++> B,
i: a->b ++> morphism A -> B {}}

C = colimit BDIAG

pa = prove QA in A using PA PQ
pb = prove RA in B
pc = prove RA in C using PA PQ QR
`

func testEnv(t *testing.T) (*speclang.Env, []Obligation) {
	t.Helper()
	env, err := speclang.Run(testSrc, speclang.Options{})
	if err != nil {
		t.Fatalf("elaboration failed: %v", err)
	}
	obs, err := Extract(testSrc)
	if err != nil {
		t.Fatalf("Extract failed: %v", err)
	}
	return env, obs
}

func TestExtractObligationsAndDAG(t *testing.T) {
	_, obs := testEnv(t)
	if len(obs) != 3 {
		t.Fatalf("obligations = %d, want 3", len(obs))
	}
	want := []struct {
		name, in, theorem string
		using             int
		depth             int
		deps              string
	}{
		{"pa", "A", "QA", 2, 0, ""},
		{"pb", "B", "RA", 0, 1, "A"},
		{"pc", "C", "RA", 3, 3, "A B BDIAG"},
	}
	for i, w := range want {
		ob := obs[i]
		if ob.Name != w.name || ob.In != w.in || ob.Theorem != w.theorem {
			t.Errorf("obligation %d = %s (%s in %s), want %s (%s in %s)",
				i, ob.Name, ob.Theorem, ob.In, w.name, w.theorem, w.in)
		}
		if len(ob.Using) != w.using {
			t.Errorf("%s: using = %v, want %d premises", ob.Name, ob.Using, w.using)
		}
		if ob.Depth != w.depth {
			t.Errorf("%s: depth = %d, want %d", ob.Name, ob.Depth, w.depth)
		}
		if got := strings.Join(ob.Deps, " "); got != w.deps {
			t.Errorf("%s: deps = %q, want %q", ob.Name, got, w.deps)
		}
		if ob.Index <= 0 || ob.Line <= 0 {
			t.Errorf("%s: index/line not populated: %+v", ob.Name, ob)
		}
	}
	if !(obs[0].Index < obs[1].Index && obs[1].Index < obs[2].Index) {
		t.Errorf("obligations out of source order: %v %v %v", obs[0].Index, obs[1].Index, obs[2].Index)
	}
}

func render(r Result) string {
	var b strings.Builder
	for _, s := range r.Proof.Proof {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSchedulerDeterministicAcrossWorkerCounts proves the same
// obligations at several pool sizes and requires bit-identical proofs in
// stable source order every time.
func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	env, obs := testEnv(t)
	var baseline []string
	for _, workers := range []int{1, 2, 4, 8} {
		s := &Scheduler{Workers: workers}
		results := s.Run(env, obs)
		if len(results) != len(obs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(obs))
		}
		var rendered []string
		for i, r := range results {
			if r.Obligation.Name != obs[i].Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, r.Obligation.Name, obs[i].Name)
			}
			if r.Err != nil {
				t.Fatalf("workers=%d: %s failed: %v", workers, r.Obligation.Name, r.Err)
			}
			rendered = append(rendered, render(r))
		}
		if baseline == nil {
			baseline = rendered
			continue
		}
		for i := range rendered {
			if rendered[i] != baseline[i] {
				t.Errorf("workers=%d: proof %s differs from workers=1 run", workers, obs[i].Name)
			}
		}
	}
}

// TestSchedulerMatchesSequentialElaborator keeps the reference the inline
// elaborator used to be: a fresh prover run on the statement's operands
// one statement at a time. Pooled scheduler proofs must be bit-identical
// to it.
func TestSchedulerMatchesSequentialElaborator(t *testing.T) {
	env, obs := testEnv(t)
	results := (&Scheduler{Workers: 4}).Run(env, obs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Obligation.Name, r.Err)
		}
		premises, goal, err := env.ProveOperands(r.Obligation.In, r.Obligation.Theorem, r.Obligation.Using)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := prover.New().Prove(premises, goal)
		if err != nil {
			t.Fatalf("reference proof of %s failed: %v", r.Obligation.Name, err)
		}
		if want := render(Result{Proof: ref}); render(r) != want {
			t.Errorf("%s: scheduled proof differs from the sequential proof", r.Obligation.Name)
		}
	}
}

func TestSchedulerReportsBadObligations(t *testing.T) {
	env, obs := testEnv(t)
	bad := []Obligation{
		{Name: "missing-spec", In: "NOSUCH", Theorem: "QA"},
		{Name: "missing-theorem", In: "A", Theorem: "NOPE"},
		{Name: "missing-axiom", In: "A", Theorem: "QA", Using: []string{"NOAX"}},
	}
	results := (&Scheduler{Workers: 2}).Run(env, append(bad, obs[0]))
	for i := 0; i < 3; i++ {
		if results[i].Err == nil {
			t.Errorf("%s: expected an error", results[i].Obligation.Name)
		}
	}
	if !errors.Is(results[1].Err, ErrObligation) || !errors.Is(results[2].Err, ErrObligation) {
		t.Errorf("lookup failures should wrap ErrObligation: %v / %v", results[1].Err, results[2].Err)
	}
	if results[3].Err != nil {
		t.Errorf("valid obligation failed alongside bad ones: %v", results[3].Err)
	}
	if err := bind(env, results); err == nil {
		t.Error("bind should surface the first failed result")
	}
}

func TestBindAttachesProofs(t *testing.T) {
	env, obs := testEnv(t)
	before := strings.Join(env.Names(), " ")
	results := (&Scheduler{Workers: 2}).Run(env, obs)
	if err := bind(env, results); err != nil {
		t.Fatalf("bind failed: %v", err)
	}
	if after := strings.Join(env.Names(), " "); after != before {
		t.Errorf("bind changed name order:\nbefore: %s\nafter:  %s", before, after)
	}
	for _, ob := range obs {
		v, ok := env.Lookup(ob.Name)
		if !ok || v.Kind != speclang.KindProof || v.Proof == nil {
			t.Errorf("%s: proof not bound (kind=%v)", ob.Name, v.Kind)
		}
	}
}

// sameNamesTwoSorts states one axiom name and one theorem body in two
// specs that differ only in the sort: A's P(c) is over S, B's over T.
// A rendered formula omits sorts, so anything keyed on an axiom's name and
// rendering conflates the two axioms; pb, a true theorem, must still prove
// from B's own axiom whatever the scheduler ran before it.
const sameNamesTwoSorts = `A = spec
sort S
op c : S
op P : S -> Boolean
axiom a is P(c)
theorem ga is P(c)
endspec

B = spec
sort T
op c : T
op P : T -> Boolean
axiom a is P(c)
theorem gb is P(c)
endspec

pa = prove ga in A using a
pb = prove gb in B using a
`

func TestSameNamedAxiomsOverDifferentSorts(t *testing.T) {
	for _, workers := range []int{1, 2} {
		_, results, err := (&Scheduler{Workers: workers}).Verify(sameNamesTwoSorts, speclang.Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != 2 {
			t.Fatalf("workers=%d: results = %d, want 2", workers, len(results))
		}
	}
}

const provable = `A = spec
op P : Boolean
op Q : Boolean
axiom p is P
axiom pq is P => Q
theorem goal is Q
endspec
`

func TestProveStatement(t *testing.T) {
	env, _, err := (&Scheduler{Workers: 1}).Verify(provable+`r = prove goal in A using p pq`, speclang.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := env.Lookup("r")
	if !ok || v.Kind != speclang.KindProof {
		t.Fatalf("proof value missing: %+v", v)
	}
	if v.Proof.Stats.ProofLength == 0 {
		t.Fatal("empty proof")
	}
}

func TestProveFailsForNonTheorem(t *testing.T) {
	_, _, err := (&Scheduler{Workers: 1}).Verify(provable+`r = prove goal in A using p`, speclang.Options{})
	if err == nil {
		t.Fatal("unprovable goal accepted")
	}
	if !errors.Is(err, prover.ErrExhausted) || !strings.Contains(err.Error(), "line 8 (r)") {
		t.Errorf("error should name the statement and wrap the verdict: %v", err)
	}
}

// TestVerifyBindsBareProveInPlace covers the prove statement with no
// name: its proof must replace the placeholder elaboration bound, not be
// appended under a second name.
func TestVerifyBindsBareProveInPlace(t *testing.T) {
	env, results, err := (&Scheduler{Workers: 2}).Verify(provable+"prove goal in A using p pq\nB = spec\nendspec", speclang.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(env.Names(), " "); got != "A _anon1 B" {
		t.Fatalf("names = %q, want the proof bound where the statement stood", got)
	}
	if v, _ := env.Lookup(results[0].Obligation.Name); v.Kind != speclang.KindProof {
		t.Errorf("bare prove statement left unproved: %+v", v)
	}
}
