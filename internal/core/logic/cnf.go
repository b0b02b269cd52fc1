package logic

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Literal is an atom or its negation inside a clause.
type Literal struct {
	// Negated marks a negative literal.
	Negated bool
	// Atom is the underlying atomic formula (KindPred or KindEq).
	Atom *Formula
}

// String renders the literal, prefixing ~ when negated.
func (l Literal) String() string {
	if l.Negated {
		return "~" + l.Atom.String()
	}
	return l.Atom.String()
}

// Complementary reports whether l and m are an atom and its negation with
// syntactically identical atoms (no unification).
func (l Literal) Complementary(m Literal) bool {
	return l.Negated != m.Negated && l.Atom.Equal(m.Atom)
}

// Apply returns the literal with substitution s applied to its atom.
func (l Literal) Apply(s Subst) Literal {
	return Literal{Negated: l.Negated, Atom: s.ApplyFormula(l.Atom)}
}

// Clause is a disjunction of literals. The empty clause is falsity.
type Clause struct {
	Literals []Literal
}

// IsEmpty reports whether the clause has no literals (i.e. is false).
func (c *Clause) IsEmpty() bool { return len(c.Literals) == 0 }

// String renders the clause as "l1 | l2 | ..." or "⊥" when empty.
func (c *Clause) String() string {
	if c.IsEmpty() {
		return "⊥"
	}
	parts := make([]string, len(c.Literals))
	for i, l := range c.Literals {
		parts[i] = l.String()
	}
	return strings.Join(parts, " | ")
}

// Canonical returns a normalized string key for the clause under variable
// renaming: variables are numbered in order of first occurrence, every
// variable, constant and function symbol carries its sort, and literals are
// sorted. Used for subsumption-by-identity and duplicate elimination.
func (c *Clause) Canonical() string { return string(c.AppendCanonical(nil)) }

// AppendCanonical appends the clause's Canonical key to dst and returns the
// extended buffer: the empty-substitution case of Subst.AppendCanonical.
func (c *Clause) AppendCanonical(dst []byte) []byte {
	return Subst(nil).AppendCanonical(dst, c.Literals)
}

// AppendCanonical appends to dst the Canonical key of the clause whose
// literals are lits with s applied, without applying it. Each literal is
// encoded into dst's tail, the spans are sorted, and the joined key
// replaces them, so a caller that reuses dst encodes a clause without
// allocating.
func (s Subst) AppendCanonical(dst []byte, lits []Literal) []byte {
	// Stack room for the variable numbering (vars[i] is numbered i) and for
	// the literal spans of a clause within the prover's default limits.
	var varsArr [16]string
	var spansArr [24]struct{ lo, hi int }
	buf, vars, spans := dst, varsArr[:0], spansArr[:0]
	for _, l := range lits {
		lo := len(buf)
		if l.Negated {
			buf = append(buf, '~')
		}
		buf, vars = s.appendCanonArgs(append(buf, l.Atom.Name...), vars, l.Atom.Args)
		spans = append(spans, struct{ lo, hi int }{lo, len(buf)})
	}
	start, mid := len(dst), len(buf)
	slices.SortFunc(spans, func(a, b struct{ lo, hi int }) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	for i, sp := range spans {
		if i > 0 {
			buf = append(buf, " | "...)
		}
		buf = append(buf, buf[sp.lo:sp.hi]...)
	}
	return buf[:start+copy(buf[start:], buf[mid:])]
}

// appendCanonArgs encodes a parenthesized argument list for
// AppendCanonical: a variable as 'V' and its first-occurrence number in
// vars, every term followed by ':' and its sort.
func (s Subst) appendCanonArgs(buf []byte, vars []string, args []*Term) ([]byte, []string) {
	buf = append(buf, '(')
	for i, t := range args {
		if i > 0 {
			buf = append(buf, ',')
		}
		t = s.resolve(t)
		if t.Kind == KindVar {
			n := slices.Index(vars, t.Name)
			if n < 0 {
				n = len(vars)
				vars = append(vars, t.Name)
			}
			buf = strconv.AppendInt(append(buf, 'V'), int64(n), 10)
		} else {
			buf = append(buf, t.Name...)
		}
		buf = append(append(buf, ':'), t.Sort...)
		if t.Kind == KindApp {
			buf, vars = s.appendCanonArgs(buf, vars, t.Args)
		}
	}
	return append(buf, ')'), vars
}

// RenameVars returns a copy of the clause with every variable renamed using
// the given suffix, standardizing clauses apart before resolution.
func (c *Clause) RenameVars(suffix string) *Clause {
	var m Subst
	for _, l := range c.Literals {
		for _, a := range l.Atom.Args {
			for _, v := range a.Vars() {
				if _, ok := m.lookup(v.Name); !ok {
					m = append(m, Binding{v.Name, Var(v.Name+suffix, v.Sort)})
				}
			}
		}
	}
	out := &Clause{Literals: make([]Literal, len(c.Literals))}
	for i, l := range c.Literals {
		out.Literals[i] = l.Apply(m)
	}
	return out
}

// skolemCounter names fresh skolem symbols within one clausification run.
type skolemCounter struct{ n int }

func (sc *skolemCounter) fresh() string {
	sc.n++
	return fmt.Sprintf("sk%d", sc.n)
}

// Clausify converts a closed formula into an equisatisfiable set of clauses:
// NNF, quantifier handling with Skolemization, then distribution into CNF.
// Free variables are treated as universally quantified.
func Clausify(f *Formula) []*Clause {
	sc := &skolemCounter{}
	return ClausifyWith(f, sc.fresh)
}

// ClausifyWith is Clausify with a caller-supplied fresh-skolem-name source,
// letting a prover keep skolem names unique across several formulas.
func ClausifyWith(f *Formula, freshSkolem func() string) []*Clause {
	f = Closure(f)
	nnf := toNNF(f, false)
	renumber := &varRenamer{taken: map[string]int{}}
	matrix := skolemize(nnf, nil, nil, freshSkolem, renumber)
	return distribute(matrix)
}

// toNNF pushes negations to atoms. neg tracks whether the current context is
// under an odd number of negations.
func toNNF(f *Formula, neg bool) *Formula {
	switch f.Kind {
	case KindPred, KindEq:
		if neg {
			return Not(f)
		}
		return f
	case KindTrue:
		if neg {
			return False()
		}
		return True()
	case KindFalse:
		if neg {
			return True()
		}
		return False()
	case KindNot:
		return toNNF(f.Sub[0], !neg)
	case KindAnd, KindOr:
		kind := f.Kind
		if neg {
			if kind == KindAnd {
				kind = KindOr
			} else {
				kind = KindAnd
			}
		}
		sub := make([]*Formula, len(f.Sub))
		for i, s := range f.Sub {
			sub[i] = toNNF(s, neg)
		}
		return &Formula{Kind: kind, Sub: sub}
	case KindImplies:
		// p => q  ≡  ~p | q
		return toNNF(Or(Not(f.Sub[0]), f.Sub[1]), neg)
	case KindIff:
		p, q := f.Sub[0], f.Sub[1]
		return toNNF(And(Implies(p, q), Implies(q, p)), neg)
	case KindForall, KindExists:
		kind := f.Kind
		if neg {
			if kind == KindForall {
				kind = KindExists
			} else {
				kind = KindForall
			}
		}
		return &Formula{Kind: kind, Bound: f.Bound, Sub: []*Formula{toNNF(f.Sub[0], neg)}}
	default:
		return f
	}
}

// varRenamer produces globally unique variable names so that distinct
// quantifier scopes never collide after the quantifiers are dropped.
type varRenamer struct{ taken map[string]int }

func (r *varRenamer) fresh(base string) string {
	n := r.taken[base]
	r.taken[base] = n + 1
	if n == 0 {
		return base
	}
	return fmt.Sprintf("%s_%d", base, n)
}

// skolemize removes quantifiers from an NNF formula. universals is the list
// of universally bound variables in scope (after renaming); s carries the
// renaming/skolem substitution, a quantifier's bindings shadowing the
// enclosing ones.
func skolemize(f *Formula, universals []*Term, s Subst, freshSkolem func() string, r *varRenamer) *Formula {
	switch f.Kind {
	case KindPred, KindEq:
		return s.ApplyFormula(f)
	case KindNot:
		return Not(skolemize(f.Sub[0], universals, s, freshSkolem, r))
	case KindAnd, KindOr:
		sub := make([]*Formula, len(f.Sub))
		for i, g := range f.Sub {
			sub[i] = skolemize(g, universals, s, freshSkolem, r)
		}
		return &Formula{Kind: f.Kind, Sub: sub}
	case KindForall:
		// Cap before extending: sibling branches must not share growth of
		// the same backing array.
		inner := s[:len(s):len(s)]
		scope := make([]*Term, len(universals), len(universals)+len(f.Bound))
		copy(scope, universals)
		for _, v := range f.Bound {
			nv := Var(r.fresh(v.Name), v.Sort)
			inner = append(inner, Binding{v.Name, nv})
			scope = append(scope, nv)
		}
		return skolemize(f.Sub[0], scope, inner, freshSkolem, r)
	case KindExists:
		inner := s[:len(s):len(s)]
		for _, v := range f.Bound {
			name := freshSkolem()
			if len(universals) == 0 {
				inner = append(inner, Binding{v.Name, Const(name, v.Sort)})
			} else {
				args := make([]*Term, len(universals))
				copy(args, universals)
				inner = append(inner, Binding{v.Name, App(name, v.Sort, args...)})
			}
		}
		return skolemize(f.Sub[0], universals, inner, freshSkolem, r)
	case KindTrue, KindFalse:
		return f
	default:
		return f
	}
}

// distribute converts a quantifier-free NNF formula to clauses.
func distribute(f *Formula) []*Clause {
	switch f.Kind {
	case KindTrue:
		return nil
	case KindFalse:
		return []*Clause{{}}
	case KindPred, KindEq:
		return []*Clause{{Literals: []Literal{{Atom: f}}}}
	case KindNot:
		return []*Clause{{Literals: []Literal{{Negated: true, Atom: f.Sub[0]}}}}
	case KindAnd:
		var out []*Clause
		for _, s := range f.Sub {
			out = append(out, distribute(s)...)
		}
		return dedupeClauses(out)
	case KindOr:
		// Cross-product of the clause sets of each disjunct.
		acc := []*Clause{{}}
		for _, s := range f.Sub {
			cs := distribute(s)
			var next []*Clause
			for _, a := range acc {
				for _, c := range cs {
					merged := &Clause{Literals: append(append([]Literal{}, a.Literals...), c.Literals...)}
					next = append(next, simplifyClause(merged))
				}
			}
			acc = compactNil(next)
			if len(acc) == 0 {
				// Every branch was a tautology: the disjunction is valid.
				return nil
			}
		}
		return dedupeClauses(acc)
	default:
		// Implies/Iff/quantifiers were eliminated earlier; treat defensively
		// as an opaque true formula contributing no clauses.
		return nil
	}
}

// simplifyClause removes duplicate literals and returns nil for tautologies.
func simplifyClause(c *Clause) *Clause {
	var out []Literal
	for _, l := range c.Literals {
		dup := false
		for _, m := range out {
			if l.Negated == m.Negated && l.Atom.Equal(m.Atom) {
				dup = true
				break
			}
			if l.Complementary(m) {
				return nil // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return &Clause{Literals: out}
}

func compactNil(cs []*Clause) []*Clause {
	out := cs[:0]
	for _, c := range cs {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

func dedupeClauses(cs []*Clause) []*Clause {
	seen := map[string]bool{}
	var out []*Clause
	for _, c := range cs {
		if c == nil {
			continue
		}
		k := c.Canonical()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}
