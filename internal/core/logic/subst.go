package logic

import (
	"fmt"
	"slices"
	"strings"
)

// Binding binds one variable name to a term.
type Binding struct {
	Var  string
	Term *Term
}

// Subst is a substitution: a list of bindings looked up newest-first, so a
// later binding of a name shadows an earlier one. Unify and UnifyAtoms
// extend a Subst the way append extends a slice, so a caller that passes
// s[:0] back in reuses one buffer across unifications.
type Subst []Binding

// lookup returns the newest binding of name.
func (s Subst) lookup(name string) (*Term, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].Var == name {
			return s[i].Term, true
		}
	}
	return nil, false
}

// resolve follows t's variable bindings to a non-variable or an unbound
// variable. An acyclic chain follows at most len(s) bindings, so a longer
// one is an identity or cyclic binding: stopping there makes resolve
// terminate on any variable-to-variable cycle, not just on ones produced
// by Unify.
func (s Subst) resolve(t *Term) *Term {
	for range len(s) + 1 {
		if t.Kind != KindVar {
			return t
		}
		r, ok := s.lookup(t.Name)
		if !ok {
			return t
		}
		t = r
	}
	return t
}

// Apply applies the substitution to a term, returning a fresh term.
func (s Subst) Apply(t *Term) *Term {
	if t == nil {
		return nil
	}
	t = s.resolve(t)
	if t.Kind != KindApp {
		return t
	}
	args := s.applyArgs(t.Args)
	if args == nil {
		return t
	}
	return &Term{Kind: KindApp, Name: t.Name, Sort: t.Sort, Args: args}
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

// Size is the Size of s.Apply(t), computed without building it.
func (s Subst) Size(t *Term) int {
	t = s.resolve(t)
	n := 1
	for _, a := range t.Args {
		n += s.Size(a)
	}
	return n
}

// EqualAtoms reports whether the atoms a and b are Equal once s is
// applied to both, without applying it.
func (s Subst) EqualAtoms(a, b *Formula) bool {
	return a.Kind == b.Kind && a.Name == b.Name && s.equalArgs(a.Args, b.Args)
}

func (s Subst) equalArgs(as, bs []*Term) bool {
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		a, b := s.resolve(as[i]), s.resolve(bs[i])
		if a != b && (a.Kind != b.Kind || a.Name != b.Name || a.Sort != b.Sort || !s.equalArgs(a.Args, b.Args)) {
			return false
		}
	}
	return true
}

// ApplyFormula applies the substitution to every term in the formula. A
// quantifier shadows its bound variables: the body sees s without their
// bindings. In practice the prover only substitutes into quantifier-free
// formulas.
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
		var inner Subst
		for _, b := range s {
			if !slices.ContainsFunc(f.Bound, func(v *Term) bool { return v.Name == b.Var }) {
				inner = append(inner, b)
			}
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

// String renders the bindings oldest first, e.g. {x↦c, y↦f(z)}.
func (s Subst) String() string {
	parts := make([]string, len(s))
	for i, b := range s {
		parts[i] = fmt.Sprintf("%s↦%s", b.Var, b.Term)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Unify computes a most general unifier of terms a and b, extending base
// (which may be nil) as append does: the result may share base's storage.
// It returns the extended substitution, or ok=false and base unextended if
// the terms do not unify. Sorts must agree on variables bindings: a
// variable of sort S only binds to a term of sort S or of the empty sort
// (and vice versa), which lets partially sorted corpora unify with fully
// sorted ones.
func Unify(a, b *Term, base Subst) (Subst, bool) {
	s, ok := unify(a, b, base)
	if !ok {
		return base, false
	}
	return s, true
}

func unify(a, b *Term, s Subst) (Subst, bool) {
	a = s.resolve(a)
	b = s.resolve(b)
	switch {
	case a.Kind == KindVar && b.Kind == KindVar && a.Name == b.Name:
		return s, true
	case b.Kind == KindVar && (a.Kind != KindVar || b.Sort == "" && a.Sort != ""):
		// Between two variables the unsorted one is bound, so the sorted
		// one's constraint survives; binding x:S to z would let z later
		// take a T the reverse order refuses.
		return bindVar(b, a, s)
	case a.Kind == KindVar:
		return bindVar(a, b, s)
	case a.Kind == KindConst && b.Kind == KindConst:
		return s, a.Name == b.Name && sortsCompatible(a.Sort, b.Sort)
	case a.Kind == KindApp && b.Kind == KindApp:
		if a.Name != b.Name || len(a.Args) != len(b.Args) || !sortsCompatible(a.Sort, b.Sort) {
			return s, false
		}
		for i := range a.Args {
			var ok bool
			if s, ok = unify(a.Args[i], b.Args[i], s); !ok {
				return s, false
			}
		}
		return s, true
	default:
		return s, false
	}
}

func bindVar(v, t *Term, s Subst) (Subst, bool) {
	if !sortsCompatible(v.Sort, t.Sort) || occurs(v.Name, t, s) {
		return s, false
	}
	return append(s, Binding{v.Name, t}), true
}

func occurs(name string, t *Term, s Subst) bool {
	t = s.resolve(t)
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
// extending base as Unify does. Returns ok=false and base unextended when
// the predicates differ or any argument pair fails to unify.
func UnifyAtoms(a, b *Formula, base Subst) (Subst, bool) {
	if a.Kind != b.Kind || a.Name != b.Name || len(a.Args) != len(b.Args) {
		return base, false
	}
	s := base
	for i := range a.Args {
		var ok bool
		if s, ok = unify(a.Args[i], b.Args[i], s); !ok {
			return base, false
		}
	}
	return s, true
}
