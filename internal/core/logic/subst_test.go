package logic

import "testing"

func TestUnifyBasic(t *testing.T) {
	tests := []struct {
		name   string
		a, b   *Term
		wantOK bool
	}{
		{"var-const", Var("x", ""), Const("c", ""), true},
		{"const-const same", Const("c", ""), Const("c", ""), true},
		{"const-const diff", Const("c", ""), Const("d", ""), false},
		{"app-app", App("f", "", Var("x", "")), App("f", "", Const("c", "")), true},
		{"app arity mismatch", App("f", "", Var("x", "")), App("f", "", Var("x", ""), Var("y", "")), false},
		{"app name mismatch", App("f", "", Var("x", "")), App("g", "", Var("x", "")), false},
		{"occurs check", Var("x", ""), App("f", "", Var("x", "")), false},
		{"sorted var ok", Var("x", "S"), Const("c", "S"), true},
		{"sorted var mismatch", Var("x", "S"), Const("c", "T"), false},
		{"unsorted meets sorted", Var("x", ""), Const("c", "T"), true},
		{"same var", Var("x", "S"), Var("x", "S"), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, ok := Unify(tt.a, tt.b, nil)
			if ok != tt.wantOK {
				t.Errorf("Unify(%s, %s) ok = %v, want %v", tt.a, tt.b, ok, tt.wantOK)
			}
		})
	}
}

func TestUnifyProducesUnifier(t *testing.T) {
	a := App("f", "", Var("x", ""), App("g", "", Var("y", "")))
	b := App("f", "", Const("c", ""), App("g", "", Const("d", "")))
	s, ok := Unify(a, b, nil)
	if !ok {
		t.Fatal("Unify failed")
	}
	if !s.Apply(a).Equal(s.Apply(b)) {
		t.Errorf("substitution does not unify: %s vs %s", s.Apply(a), s.Apply(b))
	}
}

func TestUnifyChained(t *testing.T) {
	// x ~ y, then y ~ c: applying to x must yield c.
	s, ok := Unify(Var("x", ""), Var("y", ""), nil)
	if !ok {
		t.Fatal("var-var unify failed")
	}
	s, ok = Unify(Var("y", ""), Const("c", ""), s)
	if !ok {
		t.Fatal("chained unify failed")
	}
	if got := s.Apply(Var("x", "")); got.Name != "c" {
		t.Errorf("x resolves to %s, want c", got)
	}
}

func TestUnifyAtoms(t *testing.T) {
	p := Pred("P", Var("x", ""), Const("c", ""))
	q := Pred("P", Const("d", ""), Const("c", ""))
	s, ok := UnifyAtoms(p, q, nil)
	if !ok {
		t.Fatal("UnifyAtoms failed")
	}
	if !s.ApplyFormula(p).Equal(s.ApplyFormula(q)) {
		t.Error("substitution does not unify atoms")
	}
	if _, ok := UnifyAtoms(p, Pred("Q", Var("x", ""), Const("c", "")), nil); ok {
		t.Error("different predicates unified")
	}
}

func TestApplyFormulaQuantifierShadowing(t *testing.T) {
	// Substituting x under fa(x) must not touch the bound occurrences.
	f := Forall([]*Term{Var("x", "")}, Pred("P", Var("x", ""), Var("y", "")))
	s := Subst{{"x", Const("c", "")}, {"y", Const("d", "")}}
	got := s.ApplyFormula(f)
	atom := got.Sub[0]
	if atom.Args[0].Name != "x" {
		t.Errorf("bound x was substituted: %s", got)
	}
	if atom.Args[1].Name != "d" {
		t.Errorf("free y was not substituted: %s", got)
	}
}

// TestUnifySortSurvivesUnsortedVar is the case the symmetry property used
// to trip over about one run in twenty: x:S meets the unsorted z before z
// meets b:T. Bound as x -> z the sort S was forgotten and z took b; the
// reverse argument order bound z -> x and refused. Both orders refuse now.
func TestUnifySortSurvivesUnsortedVar(t *testing.T) {
	l := App("f", "S", Var("x", "S"), Const("b", "T"))
	r := App("f", "S", Var("z", ""), Var("z", ""))
	if _, ok := Unify(l, r, nil); ok {
		t.Errorf("Unify(%s, %s) let z stand for both an S and a T", l, r)
	}
	if _, ok := Unify(r, l, nil); ok {
		t.Errorf("Unify(%s, %s) let z stand for both an S and a T", r, l)
	}
}

// TestApplyTerminatesOnCyclicSubst pins that Apply stops on identity and
// cyclic variable bindings, which Unify never builds but a caller may.
func TestApplyTerminatesOnCyclicSubst(t *testing.T) {
	x, y := Var("x", ""), Var("y", "")
	for _, s := range []Subst{{{"x", x}}, {{"x", y}, {"y", x}}} {
		if got := s.Apply(x); !got.IsVar() {
			t.Errorf("%s applied to x = %s, want a variable", s, got)
		}
		if got := s.Apply(App("f", "", x, y)); got.Kind != KindApp || !got.Args[0].IsVar() || !got.Args[1].IsVar() {
			t.Errorf("%s applied to f(x, y) = %s, want f of two variables", s, got)
		}
	}
}
