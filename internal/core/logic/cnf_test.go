package logic

import (
	"strings"
	"testing"
)

func TestToNNF(t *testing.T) {
	p, q := Pred("P"), Pred("Q")
	tests := []struct {
		name string
		in   *Formula
		want string
	}{
		{"double negation", Not(Not(p)), "P"},
		{"de morgan and", Not(And(p, q)), "(~P | ~Q)"},
		{"de morgan or", Not(Or(p, q)), "(~P & ~Q)"},
		{"implies", Implies(p, q), "(~P | Q)"},
		{"neg implies", Not(Implies(p, q)), "(P & ~Q)"},
		{"neg forall", Not(Forall([]*Term{Var("x", "")}, p)), "ex(x) ~P"},
		{"neg exists", Not(Exists([]*Term{Var("x", "")}, p)), "fa(x) ~P"},
		{"neg true", Not(True()), "false"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := toNNF(tt.in, false).String(); got != tt.want {
				t.Errorf("toNNF(%s) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestClausifyPropositional(t *testing.T) {
	p, q, r := Pred("P"), Pred("Q"), Pred("R")
	tests := []struct {
		name       string
		in         *Formula
		wantCount  int
		wantClause string // substring that must appear in some clause
	}{
		{"atom", p, 1, "P"},
		{"conjunction", And(p, q), 2, "Q"},
		{"disjunction", Or(p, q), 1, "P | Q"},
		{"implication", Implies(p, q), 1, "~P | Q"},
		{"distribute", Or(p, And(q, r)), 2, "P | R"},
		{"iff", Iff(p, q), 2, "~Q | P"},
		{"false", False(), 1, "⊥"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cs := Clausify(tt.in)
			if len(cs) != tt.wantCount {
				t.Fatalf("Clausify(%s) yields %d clauses (%v), want %d", tt.in, len(cs), cs, tt.wantCount)
			}
			found := false
			for _, c := range cs {
				if strings.Contains(c.String(), tt.wantClause) {
					found = true
				}
			}
			if !found {
				t.Errorf("no clause of %v contains %q", cs, tt.wantClause)
			}
		})
	}
}

func TestClausifyTautologyIsEmpty(t *testing.T) {
	p := Pred("P", Var("x", ""))
	if cs := Clausify(Or(p, Not(p))); len(cs) != 0 {
		t.Errorf("tautology produced clauses: %v", cs)
	}
	if cs := Clausify(True()); len(cs) != 0 {
		t.Errorf("true produced clauses: %v", cs)
	}
}

func TestClausifySkolemization(t *testing.T) {
	x, y := Var("x", "S"), Var("y", "S")
	// fa(x) ex(y) P(x, y): y becomes sk(x).
	f := Forall([]*Term{x}, Exists([]*Term{y}, Pred("P", x, y)))
	cs := Clausify(f)
	if len(cs) != 1 || len(cs[0].Literals) != 1 {
		t.Fatalf("unexpected clauses %v", cs)
	}
	atom := cs[0].Literals[0].Atom
	if atom.Args[1].Kind != KindApp || len(atom.Args[1].Args) != 1 {
		t.Errorf("existential was not skolemized over the universal: %s", atom)
	}

	// ex(y) P(y): y becomes a skolem constant.
	cs = Clausify(Exists([]*Term{y}, Pred("P", y)))
	if len(cs) != 1 {
		t.Fatalf("unexpected clauses %v", cs)
	}
	if got := cs[0].Literals[0].Atom.Args[0]; got.Kind != KindConst {
		t.Errorf("existential without universals should become a constant, got %s", got)
	}
}

func TestClausifyFreeVarsAreUniversal(t *testing.T) {
	// P(x) => Q(x) with x free: one clause ~P(x) | Q(x).
	f := Implies(Pred("P", Var("x", "")), Pred("Q", Var("x", "")))
	cs := Clausify(f)
	if len(cs) != 1 || len(cs[0].Literals) != 2 {
		t.Fatalf("unexpected clauses %v", cs)
	}
}

func TestClausifyScopeCollision(t *testing.T) {
	x := Var("x", "")
	// (fa(x) P(x)) & (fa(x) Q(x)) must not confuse the two x's, and both
	// clauses must remain universally valid independently.
	f := And(Forall([]*Term{x}, Pred("P", x)), Forall([]*Term{x}, Pred("Q", x)))
	cs := Clausify(f)
	if len(cs) != 2 {
		t.Fatalf("want 2 clauses, got %v", cs)
	}
}

func TestClauseCanonicalStableUnderRenaming(t *testing.T) {
	c1 := &Clause{Literals: []Literal{
		{Atom: Pred("P", Var("x", ""), Var("y", ""))},
		{Negated: true, Atom: Pred("Q", Var("x", ""))},
	}}
	c2 := c1.RenameVars("_99")
	if c1.Canonical() != c2.Canonical() {
		t.Errorf("canonical forms differ:\n%s\n%s", c1.Canonical(), c2.Canonical())
	}
}

// TestClauseCanonicalKey pins the key's bytes: variables numbered by first
// occurrence, ':' and the sort after every term, literals sorted, and an
// appended key that leaves the buffer's prefix alone.
func TestClauseCanonicalKey(t *testing.T) {
	c := &Clause{Literals: []Literal{
		{Negated: true, Atom: Pred("Q", Var("y", ""))},
		{Atom: Pred("P", Var("x", "S"), App("f", "T", Var("y", ""), Const("c", "U")))},
	}}
	want := "P(V1:S,f:T(V0:,c:U)) | ~Q(V0:)"
	if got := c.Canonical(); got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
	if got := string(c.AppendCanonical([]byte("key="))); got != "key="+want {
		t.Errorf("AppendCanonical = %q, want %q", got, "key="+want)
	}
}

// TestClausifyKeepsClausesDifferingInSort: P(x:S) and the more general
// P(y) are distinct clauses, so clausification must keep both.
func TestClausifyKeepsClausesDifferingInSort(t *testing.T) {
	x, y := Var("x", "S"), Var("y", "")
	f := And(Forall([]*Term{x}, Pred("P", x)), Forall([]*Term{y}, Pred("P", y)))
	if cs := Clausify(f); len(cs) != 2 {
		t.Fatalf("want 2 clauses, got %v", cs)
	}
}

func TestSimplifyClause(t *testing.T) {
	p := Pred("P", Const("c", ""))
	dup := &Clause{Literals: []Literal{{Atom: p}, {Atom: p.Clone()}}}
	if got := simplifyClause(dup); len(got.Literals) != 1 {
		t.Errorf("duplicate literal not removed: %v", got)
	}
	taut := &Clause{Literals: []Literal{{Atom: p}, {Negated: true, Atom: p.Clone()}}}
	if got := simplifyClause(taut); got != nil {
		t.Errorf("tautology not removed: %v", got)
	}
}

func TestIfThenElse(t *testing.T) {
	c, p, q := Pred("C"), Pred("P"), Pred("Q")
	f := IfThenElse(c, p, q)
	want := And(Implies(c, p), Implies(Not(c), q))
	if !f.Equal(want) {
		t.Errorf("IfThenElse = %s, want %s", f, want)
	}
}

func TestFormulaFreeVars(t *testing.T) {
	x, y, z := Var("x", ""), Var("y", ""), Var("z", "")
	f := Forall([]*Term{x}, And(Pred("P", x, y), Exists([]*Term{z}, Pred("Q", z, y))))
	fv := f.FreeVars()
	if len(fv) != 1 || fv[0].Name != "y" {
		t.Errorf("FreeVars = %v, want [y]", fv)
	}
}

func TestClosure(t *testing.T) {
	f := Pred("P", Var("x", ""), Var("y", ""))
	g := Closure(f)
	if g.Kind != KindForall || len(g.Bound) != 2 {
		t.Errorf("Closure did not quantify both free vars: %s", g)
	}
	if got := Closure(Pred("P", Const("c", ""))); got.Kind == KindForall {
		t.Error("Closure quantified a closed formula")
	}
}
