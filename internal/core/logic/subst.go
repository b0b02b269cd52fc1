package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Subst is a substitution mapping variable names to terms.
type Subst map[string]*Term

// Apply applies the substitution to a term, returning a fresh term.
func (s Subst) Apply(t *Term) *Term {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case KindVar:
		// Chase chains v -> u -> ... created by incremental unification.
		// An acyclic chain follows at most len(s) bindings, so a longer one
		// is an identity or cyclic binding: stopping there makes Apply
		// terminate on any variable-to-variable cycle, not just on maps
		// produced by Unify.
		cur := t
		for range len(s) + 1 {
			r, ok := s[cur.Name]
			if !ok {
				return cur
			}
			if r.Kind != KindVar {
				return s.Apply(r)
			}
			cur = r
		}
		return cur
	case KindConst:
		return t
	case KindApp:
		args := s.applyArgs(t.Args)
		if args == nil {
			return t
		}
		return &Term{Kind: KindApp, Name: t.Name, Sort: t.Sort, Args: args}
	default:
		return t
	}
}

// applyArgs applies the substitution to each argument. It returns nil when
// no argument changes, and allocates the new list only at the first change.
func (s Subst) applyArgs(args []*Term) []*Term {
	var out []*Term
	for i, a := range args {
		b := s.Apply(a)
		if b != a && out == nil {
			out = make([]*Term, len(args))
			copy(out, args[:i])
		}
		if out != nil {
			out[i] = b
		}
	}
	return out
}

// ApplyFormula applies the substitution to every term in the formula.
// Quantified formulas are not handled (panic-free: bound variables are
// simply shadowed by deleting them from a copy of s), but in practice the
// prover only substitutes into quantifier-free formulas.
func (s Subst) ApplyFormula(f *Formula) *Formula {
	if f == nil {
		return nil
	}
	switch f.Kind {
	case KindPred, KindEq:
		args := s.applyArgs(f.Args)
		if args == nil {
			return f // formulas are immutable: an unchanged atom is shared
		}
		return &Formula{Kind: f.Kind, Name: f.Name, Args: args}
	case KindForall, KindExists:
		inner := make(Subst, len(s))
		for k, v := range s {
			inner[k] = v
		}
		for _, b := range f.Bound {
			delete(inner, b.Name)
		}
		return &Formula{Kind: f.Kind, Bound: f.Bound, Sub: []*Formula{inner.ApplyFormula(f.Sub[0])}}
	default:
		c := &Formula{Kind: f.Kind, Name: f.Name, Bound: f.Bound}
		c.Sub = make([]*Formula, len(f.Sub))
		for i, sub := range f.Sub {
			c.Sub[i] = s.ApplyFormula(sub)
		}
		return c
	}
}

// String renders the substitution deterministically, e.g. {x↦c, y↦f(z)}.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s↦%s", k, s[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Unify computes a most general unifier of terms a and b, extending base
// (which may be nil). It returns the extended substitution, or ok=false if
// the terms do not unify. Sorts must agree on variables bindings: a variable
// of sort S only binds to a term of sort S or of the empty sort (and vice
// versa), which lets partially sorted corpora unify with fully sorted ones.
func Unify(a, b *Term, base Subst) (Subst, bool) {
	s := make(Subst, len(base)+4)
	for k, v := range base {
		s[k] = v
	}
	if unify(a, b, s) {
		return s, true
	}
	return nil, false
}

func unify(a, b *Term, s Subst) bool {
	a = walk(a, s)
	b = walk(b, s)
	switch {
	case a.Kind == KindVar && b.Kind == KindVar && a.Name == b.Name:
		return true
	case b.Kind == KindVar && (a.Kind != KindVar || b.Sort == "" && a.Sort != ""):
		// Between two variables the unsorted one is bound, so the sorted
		// one's constraint survives; binding x:S to z would let z later
		// take a T the reverse order refuses.
		return bindVar(b, a, s)
	case a.Kind == KindVar:
		return bindVar(a, b, s)
	case a.Kind == KindConst && b.Kind == KindConst:
		return a.Name == b.Name && sortsCompatible(a.Sort, b.Sort)
	case a.Kind == KindApp && b.Kind == KindApp:
		if a.Name != b.Name || len(a.Args) != len(b.Args) || !sortsCompatible(a.Sort, b.Sort) {
			return false
		}
		for i := range a.Args {
			if !unify(a.Args[i], b.Args[i], s) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// walk dereferences a variable through the substitution one step at a time
// until it reaches a non-variable or an unbound variable.
func walk(t *Term, s Subst) *Term {
	for t.Kind == KindVar {
		r, ok := s[t.Name]
		if !ok {
			return t
		}
		t = r
	}
	return t
}

func bindVar(v, t *Term, s Subst) bool {
	if !sortsCompatible(v.Sort, t.Sort) {
		return false
	}
	if occurs(v.Name, t, s) {
		return false
	}
	s[v.Name] = t
	return true
}

func occurs(name string, t *Term, s Subst) bool {
	t = walk(t, s)
	if t.Kind == KindVar {
		return t.Name == name
	}
	for _, a := range t.Args {
		if occurs(name, a, s) {
			return true
		}
	}
	return false
}

func sortsCompatible(a, b string) bool {
	return a == "" || b == "" || a == b
}

// UnifyAtoms unifies two atomic formulas (predicates or equalities),
// extending base. Returns ok=false when the predicates differ or any
// argument pair fails to unify.
func UnifyAtoms(a, b *Formula, base Subst) (Subst, bool) {
	if a.Kind != b.Kind || a.Name != b.Name || len(a.Args) != len(b.Args) {
		return nil, false
	}
	s := make(Subst, len(base)+4)
	for k, v := range base {
		s[k] = v
	}
	for i := range a.Args {
		if !unify(a.Args[i], b.Args[i], s) {
			return nil, false
		}
	}
	return s, true
}
