package speclang

import (
	"errors"
	"strings"
	"testing"

	"speccat/internal/core/cat"
	"speccat/internal/core/spec"
)

// wellFormedPrefix elaborates strictly; each case below appends one
// ill-formed statement X to it.
const wellFormedPrefix = `GOOD = spec
sort Clk = Nat
op Tick : Clk -> Clk
op Ready : Clk -> Boolean
op Both : Clk*Clk -> Boolean
axiom ready is
fa(t:Clk) Ready(t)
theorem live is
fa(t:Clk) Ready(t)
endspec
SMALL = spec
sort Clk = Nat
op Ready : Clk -> Boolean
endspec
M = morphism SMALL -> GOOD {}
`

// TestStrictElaborationRejectsIllFormed: strict elaboration is the spec
// language's one checker. Each case is one ill-formed statement, named for
// the well-formedness rule it breaks, and must fail with its sentinel. The
// rename cases fail in both modes. A disconnected diagram is no case: it is
// well-formed, and its colimit is the disjoint union.
func TestStrictElaborationRejectsIllFormed(t *testing.T) {
	if _, err := Run(wellFormedPrefix, Options{}); err != nil {
		t.Fatalf("prefix: %v", err)
	}
	cases := []struct {
		rule, stmt string
		want       error
		renames    bool
	}{
		{"unbound name", "X = spec\nimport GHOST\nendspec", ErrUnbound, false},
		{"wrong kind", "X = colimit GOOD", ErrWrongKind, false},
		{"undeclared sort", "X = spec\nop Mystery : Ghost -> Boolean\nendspec", spec.ErrUnknownSymbol, false},
		{"op redeclared", "X = spec\nimport GOOD\nop Tick : Clk*Clk -> Clk\nendspec", spec.ErrIllFormed, false},
		{"duplicate axiom", "X = spec\nimport GOOD\naxiom ready is\nfa(t:Clk) Ready(Tick(t))\nendspec", spec.ErrIllFormed, false},
		{"undeclared symbol", "X = spec\nimport GOOD\naxiom phantom is\nfa(t:Clk) Recv(t)\nendspec", spec.ErrUnknownSymbol, false},
		{"arity mismatch", "X = spec\nimport GOOD\naxiom wrongarity is\nfa(t:Clk) Ready(t, t)\nendspec", spec.ErrIllFormed, false},
		{"non-predicate atom", "X = spec\nimport GOOD\naxiom ticks is\nfa(t:Clk) Tick(t)\nendspec", spec.ErrIllFormed, false},
		{"duplicate rename", "X = translate(GOOD) by {Clk ++> Clock, Clk ++> Time}", spec.ErrIllFormed, true},
		{"rename of an unknown symbol", "X = translate(GOOD) by {Ghoul ++> Spirit}", spec.ErrUnknownSymbol, true},
		{"morphism maps an unknown symbol", "X = morphism SMALL -> GOOD {Ghoul ++> Spirit}", spec.ErrUnknownSymbol, true},
		{"morphism not total", "X = morphism GOOD -> SMALL {}", spec.ErrUnknownSymbol, false},
		{"morphism arity mismatch", "X = morphism SMALL -> GOOD {Ready ++> Both}", spec.ErrIllFormed, false},
		{"diagram duplicate node", "X = diagram {a ++> GOOD, a ++> SMALL}", cat.ErrBadDiagram, false},
		{"diagram unknown node", "X = diagram {a ++> SMALL, b ++> GOOD, j: a->z ++> M}", cat.ErrBadDiagram, false},
		{"diagram arc mismatch", "X = diagram {a ++> SMALL, b ++> GOOD, k: b->a ++> M}", cat.ErrBadDiagram, false},
		{"prove unknown theorem", "X = prove gone in GOOD using ready", ErrUnbound, false},
		{"prove unknown axiom", "X = prove live in GOOD using ready missing", ErrUnbound, false},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			modes := []Options{{}}
			if tc.renames {
				modes = append(modes, Options{Lenient: true})
			}
			for _, opts := range modes {
				_, err := Run(wellFormedPrefix+tc.stmt, opts)
				if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "(X)") {
					t.Errorf("lenient=%v: %q elaborated to %v, want %v at statement X", opts.Lenient, tc.stmt, err, tc.want)
				}
			}
		})
	}
}

// TestColimitApexChecks: a prove statement in a colimit resolves its
// theorem and axioms against the apex, where the nodes' identical axioms
// are one; an axiom the apex lacks, a node-qualified spelling included, is
// unbound.
func TestColimitApexChecks(t *testing.T) {
	src := `A = spec
sort S = Nat
op P : S -> Boolean
axiom base is
fa(x:S) P(x)
theorem goal is
fa(x:S) P(x)
endspec
B = spec
sort S = Nat
op P : S -> Boolean
axiom base is
fa(x:S) P(x)
endspec
M = morphism A -> B {}
D = diagram {a ++> A, b ++> B, i: a->b ++> M}
C = colimit D
ok = prove goal in C using base
`
	if _, err := Run(src, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, using := range []string{"nothere", "a_base"} {
		if _, err := Run(src+"X = prove goal in C using "+using, Options{}); !errors.Is(err, ErrUnbound) || !strings.Contains(err.Error(), "axiom "+using) {
			t.Errorf("using %s: %v, want the axiom unbound", using, err)
		}
	}
}
