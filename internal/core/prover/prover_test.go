package prover

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"speccat/internal/core/logic"
)

func nf(name string, f *logic.Formula) NamedFormula { return NamedFormula{Name: name, Formula: f} }

func mustProve(t *testing.T, axioms []NamedFormula, goal NamedFormula) *Result {
	t.Helper()
	res, err := New().Prove(axioms, goal)
	if err != nil {
		t.Fatalf("Prove(%s) failed: %v", goal.Name, err)
	}
	if len(res.Proof) == 0 || !res.Proof[len(res.Proof)-1].Clause.IsEmpty() {
		t.Fatalf("proof does not end in empty clause: %v", res.Proof)
	}
	return res
}

func mustFail(t *testing.T, axioms []NamedFormula, goal NamedFormula) {
	t.Helper()
	if _, err := New().Prove(axioms, goal); err == nil {
		t.Fatalf("Prove(%s) unexpectedly succeeded", goal.Name)
	}
}

func TestProveModusPonens(t *testing.T) {
	p, q := logic.Pred("P"), logic.Pred("Q")
	mustProve(t,
		[]NamedFormula{nf("p", p), nf("pq", logic.Implies(p, q))},
		nf("q", q))
}

func TestProveChain(t *testing.T) {
	p, q, r, s := logic.Pred("P"), logic.Pred("Q"), logic.Pred("R"), logic.Pred("S")
	mustProve(t,
		[]NamedFormula{
			nf("p", p),
			nf("pq", logic.Implies(p, q)),
			nf("qr", logic.Implies(q, r)),
			nf("rs", logic.Implies(r, s)),
		},
		nf("s", s))
}

func TestProveNonTheorem(t *testing.T) {
	p, q := logic.Pred("P"), logic.Pred("Q")
	mustFail(t, []NamedFormula{nf("p", p)}, nf("q", q))
}

func TestProveUniversalInstantiation(t *testing.T) {
	x := logic.Var("x", "S")
	c := logic.Const("c", "S")
	all := logic.Forall([]*logic.Term{x}, logic.Pred("P", x))
	mustProve(t, []NamedFormula{nf("all", all)}, nf("inst", logic.Pred("P", c)))
}

func TestProveSyllogism(t *testing.T) {
	// All men are mortal; Socrates is a man; therefore Socrates is mortal.
	x := logic.Var("x", "")
	socrates := logic.Const("socrates", "")
	axioms := []NamedFormula{
		nf("mortality", logic.Forall([]*logic.Term{x},
			logic.Implies(logic.Pred("Man", x), logic.Pred("Mortal", x)))),
		nf("socrates-man", logic.Pred("Man", socrates)),
	}
	res := mustProve(t, axioms, nf("socrates-mortal", logic.Pred("Mortal", socrates)))
	if res.Stats.ProofLength < 3 {
		t.Errorf("suspiciously short proof: %d steps", res.Stats.ProofLength)
	}
}

func TestProveExistentialGoal(t *testing.T) {
	// P(c) |- ex(x) P(x)
	c := logic.Const("c", "")
	x := logic.Var("x", "")
	mustProve(t,
		[]NamedFormula{nf("pc", logic.Pred("P", c))},
		nf("exists", logic.Exists([]*logic.Term{x}, logic.Pred("P", x))))
}

func TestProveTransitivityInstance(t *testing.T) {
	// Transitive R, R(a,b), R(b,c) |- R(a,c)
	x, y, z := logic.Var("x", ""), logic.Var("y", ""), logic.Var("z", "")
	a, b, c := logic.Const("a", ""), logic.Const("b", ""), logic.Const("c", "")
	trans := logic.Forall([]*logic.Term{x, y, z},
		logic.Implies(logic.And(logic.Pred("R", x, y), logic.Pred("R", y, z)), logic.Pred("R", x, z)))
	mustProve(t,
		[]NamedFormula{
			nf("trans", trans),
			nf("rab", logic.Pred("R", a, b)),
			nf("rbc", logic.Pred("R", b, c)),
		},
		nf("rac", logic.Pred("R", a, c)))
}

func TestProveNeedsFactoring(t *testing.T) {
	// (P(x) | P(y)) with goal ex(z) P(z) — requires factoring or double use.
	x, y, z := logic.Var("x", ""), logic.Var("y", ""), logic.Var("z", "")
	mustProve(t,
		[]NamedFormula{nf("pp", logic.Forall([]*logic.Term{x, y},
			logic.Or(logic.Pred("P", x), logic.Pred("P", y))))},
		nf("goal", logic.Exists([]*logic.Term{z}, logic.Pred("P", z))))
}

func TestProveContradictoryAxioms(t *testing.T) {
	// From P & ~P anything follows.
	p := logic.Pred("P")
	mustProve(t,
		[]NamedFormula{nf("p", p), nf("np", logic.Not(p))},
		nf("anything", logic.Pred("Q")))
}

func TestProveSortedMismatchFails(t *testing.T) {
	// fa(x:S) P(x) does not prove P(c:T): sorts block unification.
	x := logic.Var("x", "S")
	cT := logic.Const("c", "T")
	mustFail(t,
		[]NamedFormula{nf("all", logic.Forall([]*logic.Term{x}, logic.Pred("P", x)))},
		nf("inst", logic.Pred("P", cT)))
}

func TestProveConjunctionGoal(t *testing.T) {
	p, q := logic.Pred("P"), logic.Pred("Q")
	mustProve(t,
		[]NamedFormula{nf("p", p), nf("q", q)},
		nf("pq", logic.And(p, q)))
}

func TestProveIfThenElseGoal(t *testing.T) {
	c, p, q := logic.Pred("C"), logic.Pred("P"), logic.Pred("Q")
	axioms := []NamedFormula{
		nf("cp", logic.Implies(c, p)),
		nf("ncq", logic.Implies(logic.Not(c), q)),
	}
	mustProve(t, axioms, nf("ite", logic.IfThenElse(c, p, q)))
}

func TestProveTimeout(t *testing.T) {
	// An unprovable goal over a recursive axiom set: the search must stop.
	x := logic.Var("x", "")
	grow := logic.Forall([]*logic.Term{x},
		logic.Implies(logic.Pred("P", x), logic.Pred("P", logic.App("s", "", x))))
	p := &Prover{Limits: Limits{
		MaxClauses:        2000,
		MaxIterations:     500,
		MaxClauseLiterals: 8,
		MaxTermSize:       50,
		Timeout:           2 * time.Second,
	}}
	_, err := p.Prove(
		[]NamedFormula{nf("grow", grow), nf("base", logic.Pred("P", logic.Const("z", "")))},
		nf("goal", logic.Pred("Q")))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
}

// TestDiscardingSearchIsNotExhausted pins that a search whose limits
// discard a clause never reports non-entailment: both goals follow, but
// the limits drop an input clause (P∨Q over one literal) or the negated
// goal (a term of size 4 over 3), so the queue drains without a proof. The
// verdict is ErrLimit, naming the limit.
func TestDiscardingSearchIsNotExhausted(t *testing.T) {
	p, q, z := logic.Pred("P"), logic.Pred("Q"), logic.Const("z", "")
	x := logic.Var("x", "")
	s := func(t *logic.Term) *logic.Term { return logic.App("s", "", t) }
	step := logic.Forall([]*logic.Term{x}, logic.Implies(logic.Pred("P", x), logic.Pred("P", s(x))))
	for _, tc := range []struct {
		limit  string
		limits Limits
		axioms []NamedFormula
		goal   NamedFormula
	}{
		{"MaxClauseLiterals", Limits{MaxClauses: 100, MaxIterations: 100, MaxClauseLiterals: 1, MaxTermSize: 50},
			[]NamedFormula{nf("pq", logic.Or(p, q)), nf("np", logic.Not(p))}, nf("q", q)},
		{"MaxTermSize", Limits{MaxClauses: 100, MaxIterations: 100, MaxClauseLiterals: 8, MaxTermSize: 3},
			[]NamedFormula{nf("base", logic.Pred("P", z)), nf("step", step)}, nf("sss", logic.Pred("P", s(s(s(z)))))},
	} {
		if _, err := (&Prover{Limits: tc.limits}).Prove(tc.axioms, tc.goal); !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), tc.limit) {
			t.Errorf("%s over %s: got %v, want ErrLimit naming %s", tc.goal.Name, tc.limit, err, tc.limit)
		}
	}
}

// TestMaxClausesWithoutPartners fills the clause set to MaxClauses with
// clauses that resolve with nothing: no given clause has an indexed
// partner, yet the search must stop on the limit instead of draining its
// queue. The goal's negation is the clause MaxClauses turned away, so
// ErrExhausted would be a false verdict.
func TestMaxClausesWithoutPartners(t *testing.T) {
	axioms, goal := saturationInputs(8)
	p := &Prover{Limits: Limits{MaxClauses: 7, MaxIterations: 100, MaxClauseLiterals: 8, MaxTermSize: 50}}
	if _, err := p.Prove(axioms, goal); !errors.Is(err, ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
}

func TestProofStepsAreConnected(t *testing.T) {
	p, q := logic.Pred("P"), logic.Pred("Q")
	res := mustProve(t,
		[]NamedFormula{nf("p", p), nf("pq", logic.Implies(p, q))},
		nf("q", q))
	for i, s := range res.Proof {
		if s.Index != i {
			t.Errorf("step %d has index %d", i, s.Index)
		}
		for _, par := range s.Parents {
			if par >= i {
				t.Errorf("step %d references later parent %d", i, par)
			}
		}
		if s.Rule == "input" && s.Origin == "" {
			t.Errorf("input step %d has no origin", i)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	p, q := logic.Pred("P"), logic.Pred("Q")
	res := mustProve(t,
		[]NamedFormula{nf("p", p), nf("pq", logic.Implies(p, q))},
		nf("q", q))
	if res.Stats.InputClauses != 3 {
		t.Errorf("InputClauses = %d, want 3", res.Stats.InputClauses)
	}
	if res.Stats.Retained == 0 || res.Stats.ProofLength == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

// TestInjectedClockDeadline drives the timeout deterministically: a fake
// clock that jumps past the deadline must abort the search with ErrLimit
// regardless of real elapsed time, and Elapsed must come from the same
// clock.
func TestInjectedClockDeadline(t *testing.T) {
	x := logic.Var("x", "")
	grow := logic.Forall([]*logic.Term{x},
		logic.Implies(logic.Pred("P", x), logic.Pred("P", logic.App("s", "", x))))
	base := time.Unix(0, 0)
	calls := 0
	p := &Prover{
		Limits: Limits{
			MaxClauses:        5000,
			MaxIterations:     100000,
			MaxClauseLiterals: 8,
			MaxTermSize:       50,
			Timeout:           time.Minute,
		},
		Now: func() time.Time {
			calls++
			if calls == 1 {
				return base
			}
			return base.Add(time.Hour) // every later read is past the deadline
		},
	}
	_, err := p.Prove(
		[]NamedFormula{nf("grow", grow), nf("base", logic.Pred("P", logic.Const("z", "")))},
		nf("goal", logic.Pred("Q")))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("expected ErrLimit from injected deadline, got %v", err)
	}
	if calls < 2 {
		t.Fatalf("injected clock was read %d times, want at least 2", calls)
	}
}

// TestInjectedClockElapsed checks Stats.Elapsed is measured on the
// injected clock, not the wall clock.
func TestInjectedClockElapsed(t *testing.T) {
	pf, q := logic.Pred("P"), logic.Pred("Q")
	base := time.Unix(100, 0)
	tick := 0
	p := New()
	p.Now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick-1) * 7 * time.Second)
	}
	res, err := p.Prove([]NamedFormula{nf("p", pf), nf("pq", logic.Implies(pf, q))}, nf("q", q))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Elapsed <= 0 || res.Stats.Elapsed%(7*time.Second) != 0 {
		t.Errorf("Elapsed = %v, want a positive multiple of the injected 7s tick", res.Stats.Elapsed)
	}
}

// saturationInputs builds n mutually irresolvable unit facts P0..P(n-2)
// plus the unprovable goal Q: the search saturates after exactly n
// given-clause iterations (one per input clause, no resolvents).
func saturationInputs(n int) ([]NamedFormula, NamedFormula) {
	axioms := make([]NamedFormula, 0, n-1)
	for i := 0; i < n-1; i++ {
		axioms = append(axioms, nf(fmt.Sprintf("fact%d", i), logic.Pred(fmt.Sprintf("P%d", i))))
	}
	return axioms, nf("goal", logic.Pred("Q"))
}

// expiredClock returns a clock whose first reading is the start time and
// every later reading is far past any deadline.
func expiredClock() func() time.Time {
	base := time.Unix(0, 0)
	calls := 0
	return func() time.Time {
		calls++
		if calls == 1 {
			return base
		}
		return base.Add(time.Hour)
	}
}

// TestTimeoutAtSaturationBoundary pins the result classification when the
// wall-clock timeout fires on the same iteration the clause set saturates:
// the search must still report the definitive ErrExhausted (the goal is
// not entailed), never the inconclusive ErrLimit. The input count is sized
// so the queue drains exactly on a deadline-check iteration.
func TestTimeoutAtSaturationBoundary(t *testing.T) {
	axioms, goal := saturationInputs(deadlineCheckInterval)
	p := &Prover{
		Limits: Limits{
			MaxClauses:        5000,
			MaxIterations:     100000,
			MaxClauseLiterals: 8,
			MaxTermSize:       50,
			Timeout:           time.Millisecond,
		},
		Now: expiredClock(),
	}
	_, err := p.Prove(axioms, goal)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("saturation on the deadline iteration: got %v, want ErrExhausted", err)
	}
}

// TestTimeoutWithWorkRemaining pins the companion sentinel: when the
// deadline fires while unprocessed clauses remain, the verdict is the
// inconclusive ErrLimit.
func TestTimeoutWithWorkRemaining(t *testing.T) {
	axioms, goal := saturationInputs(2 * deadlineCheckInterval)
	p := &Prover{
		Limits: Limits{
			MaxClauses:        5000,
			MaxIterations:     100000,
			MaxClauseLiterals: 8,
			MaxTermSize:       50,
			Timeout:           time.Millisecond,
		},
		Now: expiredClock(),
	}
	_, err := p.Prove(axioms, goal)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("deadline with work remaining: got %v, want ErrLimit", err)
	}
}

// TestDefaultLimitsHaveTimeout guards the CI-hang backstop: the default
// limits (used by zero-value provers and the corpus elaborator) must carry
// a non-zero wall-clock timeout.
func TestDefaultLimitsHaveTimeout(t *testing.T) {
	if DefaultLimits().Timeout <= 0 {
		t.Fatal("DefaultLimits().Timeout must be non-zero")
	}
}

// TestDuplicateKeyIsSortAware pins that duplicate elimination compares
// sorts: the unsorted P(y) is more general than the sorted P(x:S), so
// neither may be dropped as the other's duplicate, whichever comes first.
// Renaming a variable still yields the same key.
func TestDuplicateKeyIsSortAware(t *testing.T) {
	x, y := logic.Var("x", "S"), logic.Var("y", "")
	sorted := nf("sorted", logic.Forall([]*logic.Term{x}, logic.Pred("P", x)))
	unsorted := nf("unsorted", logic.Forall([]*logic.Term{y}, logic.Pred("P", y)))
	goal := nf("goal", logic.Pred("P", logic.Const("c", "T")))
	mustProve(t, []NamedFormula{sorted, unsorted}, goal)
	mustProve(t, []NamedFormula{unsorted, sorted}, goal)

	unit := func(v *logic.Term) *logic.Clause {
		return &logic.Clause{Literals: []logic.Literal{{Atom: logic.Pred("P", v)}}}
	}
	if a, b := unit(x).Canonical(), unit(logic.Var("z", "S")).Canonical(); a != b {
		t.Errorf("P(x:S) and P(z:S) keys differ: %q vs %q", a, b)
	}
	if a, b := unit(x).Canonical(), unit(y).Canonical(); a == b {
		t.Errorf("P(x:S) and P(y) share the key %q", a)
	}
}

// TestDuplicateClauseDoesNotAllocate pins the duplicate path of add: the
// key is built in the search state's reused buffer and looked up without
// converting it to a string.
func TestDuplicateClauseDoesNotAllocate(t *testing.T) {
	x, y := logic.Var("x", "S"), logic.Var("y", "")
	c := &logic.Clause{Literals: []logic.Literal{
		{Atom: logic.Pred("P", x, logic.App("f", "S", y, logic.Const("c", "S")))},
		{Negated: true, Atom: logic.Pred("Q", y, x)},
	}}
	st := &searchState{limits: DefaultLimits(), seen: map[string]int{}}
	if idx := st.add(c.Literals, nil, "input", nil, "", false); idx != 0 {
		t.Fatalf("first add = %d, want 0", idx)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if st.add(c.Literals, nil, "input", nil, "", false) != -1 {
			t.Fatal("duplicate clause was retained")
		}
	})
	if allocs != 0 {
		t.Errorf("add of a duplicate allocates %v times, want 0", allocs)
	}
}
