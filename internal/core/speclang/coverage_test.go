package speclang

import (
	"errors"
	"strings"
	"testing"
)

func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unterminated spec", "A = spec\nsort S", "unterminated"},
		{"bad item", "A = spec\nfrobnicate\nendspec", "unexpected"},
		{"missing is", "A = spec\naxiom a P\nendspec", "expected 'is'"},
		{"const with product", "A = spec\nop c : S*T\nendspec", "product sort"},
		{"bad statement", "A = frobnicate", "unknown statement"},
		{"empty using", "A = spec\nop P : Boolean\ntheorem g is P\nendspec\nr = prove g in A using", "at least one"},
		{"prove missing in", "A = spec\nop P : Boolean\ntheorem g is P\nendspec\nr = prove g A", "expected 'in'"},
		{"translate missing by", "B = translate(A) {x ++> y}", "expected 'by'"},
		{"bad rename arrow", "B = translate(A) by {x => y}", "expected ++>"},
		{"diagram bad arc", "D = diagram {i: a=>b ++> m}", "expected arrow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEvalErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unbound import", "A = spec\nimport GHOST\nendspec"},
		{"unbound translate", "B = translate(GHOST) by {a ++> b}"},
		{"unbound morphism source", "M = morphism GHOST -> GHOST2 {}"},
		{"unbound diagram node", "D = diagram {a ++> GHOST}"},
		{"colimit of non-diagram", "A = spec\nsort S\nendspec\nC = colimit A"},
		{"unbound colimit", "C = colimit GHOST"},
		{"prove unknown theorem", "A = spec\nop P : Boolean\nendspec\nr = prove Ghost in A"},
		{"prove unknown axiom", "A = spec\nop P : Boolean\ntheorem g is P\nendspec\nr = prove g in A using ghost"},
		{"print unbound", "x = print GHOST"},
		{"morphism ref wrong kind", "A = spec\nsort S\nendspec\nD = diagram {a ++> A, i: a->a ++> A}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.src, Options{}); err == nil {
				t.Fatalf("eval accepted %q", tc.src)
			}
		})
	}
}

func TestEnvSpecWrongKind(t *testing.T) {
	env, err := Run("A = spec\nsort S\nop P : S -> Boolean\nendspec\nM = morphism A -> A {}", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Spec("M"); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("Spec on morphism: %v", err)
	}
	if _, err := env.Spec("GHOST"); !errors.Is(err, ErrUnbound) {
		t.Fatalf("Spec on ghost: %v", err)
	}
}

func TestPrintStatementForms(t *testing.T) {
	env, err := Run(`A = spec
sort S
op P : S -> Boolean
axiom a is fa(x:S) P(x)
theorem g is fa(x:S) P(x)
endspec
M = morphism A -> A {}
D = diagram {a ++> A}
C = colimit D
r = prove g in A using a
p1 = print A
p2 = print M
p3 = print D
p4 = print C
p5 = print r`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"p1": "spec A",
		"p2": "morphism",
		"p3": "diagram with 1 nodes",
		"p4": "spec C",
		"p5": "prove g in A (skipped)", // elaboration never proves: print sees the placeholder
	} {
		v, ok := env.Lookup(name)
		if !ok || v.Kind != KindText {
			t.Fatalf("%s missing or wrong kind", name)
		}
		if !strings.Contains(v.Text, want) {
			t.Errorf("%s text %q lacks %q", name, v.Text, want)
		}
	}
}

func TestAnonymousStatements(t *testing.T) {
	env, err := Run("spec\nsort S\nendspec", Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := env.Names()
	if len(names) != 1 || !strings.HasPrefix(names[0], "_anon") {
		t.Fatalf("names = %v", names)
	}
}

func TestStrictArityChecks(t *testing.T) {
	_, err := Run(`A = spec
sort S
op P : S*S -> Boolean
axiom a is fa(x:S) P(x)
endspec`, Options{})
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("predicate arity: %v", err)
	}
	_, err = Run(`A = spec
sort S
op f : S -> S
op P : S -> Boolean
axiom a is fa(x:S) P(f(x, x))
endspec`, Options{})
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("function arity: %v", err)
	}
}

func TestStrictUnboundIdentifier(t *testing.T) {
	_, err := Run(`A = spec
sort S
op P : S -> Boolean
axiom a is P(loose)
endspec`, Options{})
	if !errors.Is(err, ErrUnboundIdent) {
		t.Fatalf("unbound identifier: %v", err)
	}
}

func TestLenientTermNegation(t *testing.T) {
	// Term-level negation from the thesis corpus: adjacent(~(commit), commit).
	env, err := Run(`A = spec
sort D
op adjacent : D*D -> Boolean
axiom a is fa(commit:D) adjacent(~(commit), commit)
endspec`, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := env.Spec("A")
	ax, _ := s.FindAxiom("a")
	if !strings.Contains(ax.Formula.String(), "not(commit)") {
		t.Fatalf("negated term: %s", ax.Formula)
	}
}

func TestIfWithoutElse(t *testing.T) {
	env, err := Run(`A = spec
op C : Boolean
op P : Boolean
axiom a is if C then P
endspec`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := env.Spec("A")
	ax, _ := s.FindAxiom("a")
	if ax.Formula.String() != "(C => P)" {
		t.Fatalf("if-then = %s", ax.Formula)
	}
}

func TestBareVariableAtomRejectedStrict(t *testing.T) {
	// A quantified variable used as a bare atom is not a predicate.
	_, err := Run(`A = spec
sort Flag
op holds : Flag -> Boolean
axiom a is fa(b:Flag) holds(b) => b
endspec`, Options{})
	if err == nil {
		t.Fatal("bare variable atom accepted in strict mode")
	}
}

func TestMorphismByName(t *testing.T) {
	env, err := Run(`A = spec
sort S
op P : S -> Boolean
endspec
B = spec
import A
op Q : S -> Boolean
endspec
M = morphism A -> B {P ++> P}
D = diagram {a ++> A, b ++> B, i: a->b ++> M}
C = colimit D`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Spec("C")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sig.Ops) != 2 {
		t.Fatalf("ops = %v", c.OpNames())
	}
}
