package speclang

import (
	"errors"
	"fmt"

	"speccat/internal/core/cat"
	"speccat/internal/core/logic"
	"speccat/internal/core/prover"
	"speccat/internal/core/spec"
)

// Sentinel errors.
var (
	// ErrUnbound is wrapped when a statement references an undefined name.
	ErrUnbound = errors.New("speclang: unbound name")
	// ErrWrongKind is wrapped when a name is bound to the wrong kind of value.
	ErrWrongKind = errors.New("speclang: wrong value kind")
	// ErrUnboundIdent is wrapped for identifiers in formulas that are
	// neither bound variables nor declared operations (strict mode only).
	ErrUnboundIdent = errors.New("speclang: unbound identifier in formula")
)

// ValueKind tags environment values.
type ValueKind int

// Value kinds.
const (
	KindSpec ValueKind = iota + 1
	KindMorphism
	KindDiagram
	KindColimit
	KindProof
	KindText
)

// Value is one named result of elaborating a statement.
type Value struct {
	Kind     ValueKind
	Spec     *spec.Spec
	Morphism *spec.Morphism
	Diagram  *cat.Diagram
	Cocone   *cat.Cocone
	Proof    *prover.Result
	Text     string
}

// Env is the result of running a file: named values in definition order.
type Env struct {
	order  []string
	values map[string]*Value
}

// Names returns bound names in definition order.
func (e *Env) Names() []string { return append([]string{}, e.order...) }

// Lookup returns the value bound to name.
func (e *Env) Lookup(name string) (*Value, bool) {
	v, ok := e.values[name]
	return v, ok
}

// Spec returns the specification bound to name (colimits count as specs).
func (e *Env) Spec(name string) (*spec.Spec, error) {
	v, ok := e.values[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnbound, name)
	}
	switch v.Kind {
	case KindSpec, KindColimit:
		return v.Spec, nil
	default:
		return nil, fmt.Errorf("%w: %s is not a spec", ErrWrongKind, name)
	}
}

// Bind binds name to v. When name is already bound, its original
// definition position is preserved — provesched uses this to put each
// discharged proof where elaboration left the prove statement's
// placeholder, so Names() keeps source order.
func (e *Env) Bind(name string, v *Value) {
	if _, exists := e.values[name]; !exists {
		e.order = append(e.order, name)
	}
	e.values[name] = v
}

// Options configures elaboration.
type Options struct {
	// Lenient auto-declares operations and tolerates unbound identifiers
	// (treated as free variables), allowing the thesis's printed sources —
	// which contain minor inconsistencies — to elaborate.
	Lenient bool
}

// Run parses and elaborates source text. Elaboration never runs the
// prover: a prove statement is checked against the environment and bound
// as a placeholder, and provesched discharges it.
func Run(src string, opts Options) (*Env, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(f, opts)
}

// Eval elaborates a parsed file.
func Eval(f *File, opts Options) (*Env, error) {
	env := &Env{values: map[string]*Value{}}
	el := &elaborator{env: env, opts: opts}
	for i, stmt := range f.Stmts {
		v, err := el.evalStmt(stmt)
		if err != nil {
			return nil, fmt.Errorf("line %d (%s): %w", stmt.Line, f.BindName(i), err)
		}
		env.Bind(f.BindName(i), v)
	}
	return env, nil
}

type elaborator struct {
	env  *Env
	opts Options
}

func (el *elaborator) evalStmt(stmt Stmt) (*Value, error) {
	switch e := stmt.Expr.(type) {
	case *SpecExpr:
		s, err := el.evalSpec(stmt.Name, e)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindSpec, Spec: s}, nil
	case *TranslateExpr:
		src, err := el.env.Spec(e.Source)
		if err != nil {
			return nil, err
		}
		rename, err := renames(src, e.Renames)
		if err != nil {
			return nil, err
		}
		out, err := spec.Translate(src, stmt.Name, rename)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindSpec, Spec: out}, nil
	case *MorphismExpr:
		m, err := el.evalMorphism(stmt.Name, e)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindMorphism, Morphism: m}, nil
	case *DiagramExpr:
		d, err := el.evalDiagram(e)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindDiagram, Diagram: d}, nil
	case *ColimitExpr:
		v, ok := el.env.Lookup(e.Diagram)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnbound, e.Diagram)
		}
		if v.Kind != KindDiagram {
			return nil, fmt.Errorf("%w: %s is not a diagram", ErrWrongKind, e.Diagram)
		}
		cc, err := cat.Colimit(v.Diagram, stmt.Name)
		if err != nil {
			return nil, err
		}
		return &Value{Kind: KindColimit, Spec: cc.Apex, Cocone: cc}, nil
	case *ProveExpr:
		return el.evalProve(e)
	case *PrintExpr:
		v, ok := el.env.Lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnbound, e.Name)
		}
		return &Value{Kind: KindText, Text: renderValue(v)}, nil
	default:
		return nil, fmt.Errorf("speclang: unsupported expression %T", stmt.Expr)
	}
}

func renderValue(v *Value) string {
	switch v.Kind {
	case KindSpec, KindColimit:
		return v.Spec.String()
	case KindMorphism:
		return v.Morphism.String()
	case KindDiagram:
		return fmt.Sprintf("diagram with %d nodes, %d arcs", len(v.Diagram.Nodes()), len(v.Diagram.Arcs()))
	default:
		return v.Text
	}
}

func (el *elaborator) evalSpec(name string, e *SpecExpr) (*spec.Spec, error) {
	if name == "" {
		name = "SPEC"
	}
	s := spec.New(name)
	for _, imp := range e.Imports {
		src, err := el.env.Spec(imp)
		if err != nil {
			return nil, err
		}
		if err := s.Include(src); err != nil {
			return nil, err
		}
	}
	for _, sd := range e.Sorts {
		if err := s.AddSort(sd.Name, sd.Def); err != nil {
			return nil, err
		}
	}
	for _, od := range e.Ops {
		if err := s.AddOp(spec.Op{Name: od.Name, Args: od.Args, Result: od.Result}); err != nil {
			return nil, err
		}
	}
	for _, ax := range e.Axioms {
		f, err := el.elabFormula(s, ax.Formula, map[string]string{})
		if err != nil {
			return nil, fmt.Errorf("axiom %s: %w", ax.Name, err)
		}
		if err := s.AddAxiom(ax.Name, f); err != nil {
			return nil, err
		}
	}
	for _, th := range e.Theorems {
		f, err := el.elabFormula(s, th.Formula, map[string]string{})
		if err != nil {
			return nil, fmt.Errorf("theorem %s: %w", th.Name, err)
		}
		if err := s.AddTheorem(th.Name, f, nil); err != nil {
			return nil, err
		}
	}
	if !el.opts.Lenient {
		if err := s.WellFormed(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (el *elaborator) evalMorphism(name string, e *MorphismExpr) (*spec.Morphism, error) {
	src, err := el.env.Spec(e.Source)
	if err != nil {
		return nil, err
	}
	dst, err := el.env.Spec(e.Target)
	if err != nil {
		return nil, err
	}
	rename, err := renames(src, e.Renames)
	if err != nil {
		return nil, err
	}
	sortMap := map[string]string{}
	opMap := map[string]string{}
	for from, to := range rename {
		if src.HasSort(from) {
			sortMap[from] = to
		} else {
			opMap[from] = to
		}
	}
	if name == "" {
		name = e.Source + "_to_" + e.Target
	}
	m := spec.NewMorphism(name, src, dst, sortMap, opMap)
	if !el.opts.Lenient {
		if err := m.CheckSignature(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// renames reads the rename list of a translate or morphism against its
// source spec, in both modes: every entry must name a sort or op src
// declares, and no symbol may be renamed twice.
func renames(src *spec.Spec, pairs []RenamePair) (map[string]string, error) {
	rename := make(map[string]string, len(pairs))
	for _, rp := range pairs {
		if _, dup := rename[rp.From]; dup {
			return nil, fmt.Errorf("%w: %s renamed twice", spec.ErrIllFormed, rp.From)
		}
		if _, isOp := src.FindOp(rp.From); !isOp && !src.HasSort(rp.From) {
			return nil, fmt.Errorf("%w: rename of %s, which %s does not declare", spec.ErrUnknownSymbol, rp.From, src.Name)
		}
		rename[rp.From] = rp.To
	}
	return rename, nil
}

func (el *elaborator) evalDiagram(e *DiagramExpr) (*cat.Diagram, error) {
	d := cat.NewDiagram()
	for _, n := range e.Nodes {
		s, err := el.env.Spec(n.Spec)
		if err != nil {
			return nil, err
		}
		if err := d.AddNode(n.Label, s); err != nil {
			return nil, err
		}
	}
	for _, a := range e.Arcs {
		var m *spec.Morphism
		switch me := a.M.(type) {
		case *MorphismExpr:
			var err error
			if m, err = el.evalMorphism(a.Label, me); err != nil {
				return nil, err
			}
		case *MorphismRef:
			v, ok := el.env.Lookup(me.Name)
			if !ok {
				return nil, fmt.Errorf("%w: %s", ErrUnbound, me.Name)
			}
			if v.Kind != KindMorphism {
				return nil, fmt.Errorf("%w: %s is not a morphism", ErrWrongKind, me.Name)
			}
			m = v.Morphism
		default:
			return nil, fmt.Errorf("speclang: bad arc expression %T", a.M)
		}
		if err := d.AddArc(a.Label, a.From, a.To, m); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// evalProve checks that the statement's spec, theorem and axioms resolve
// and binds the placeholder provesched later replaces with the proof.
func (el *elaborator) evalProve(e *ProveExpr) (*Value, error) {
	if _, _, err := el.env.ProveOperands(e.In, e.Theorem, e.Using); err != nil {
		return nil, err
	}
	return &Value{Kind: KindText, Text: fmt.Sprintf("prove %s in %s (skipped)", e.Theorem, e.In)}, nil
}

// ProveOperands resolves a prove statement against the environment: the
// goal is theorem of the spec bound to in, the premises are the axioms
// using names, in that order, or every axiom of the spec when using is
// empty. It is the one definition of what a prove statement hands the
// prover: the elaborator calls it to validate the statement and
// provesched calls it to discharge the obligation.
func (e *Env) ProveOperands(in, theorem string, using []string) (premises []prover.NamedFormula, goal prover.NamedFormula, err error) {
	s, err := e.Spec(in)
	if err != nil {
		return nil, goal, err
	}
	th, ok := s.FindTheorem(theorem)
	if !ok {
		return nil, goal, fmt.Errorf("%w: theorem %s in %s", ErrUnbound, theorem, in)
	}
	if len(using) > 0 {
		for _, axName := range using {
			ax, ok := s.FindAxiom(axName)
			if !ok {
				return nil, goal, fmt.Errorf("%w: axiom %s in %s", ErrUnbound, axName, in)
			}
			premises = append(premises, prover.NamedFormula{Name: ax.Name, Formula: ax.Formula})
		}
	} else {
		for _, ax := range s.Axioms {
			premises = append(premises, prover.NamedFormula{Name: ax.Name, Formula: ax.Formula})
		}
	}
	return premises, prover.NamedFormula{Name: th.Name, Formula: th.Formula}, nil
}

// --- formula elaboration ---

// elabFormula converts surface formulas to logic formulas against the
// signature of s, with binders carrying variable sorts.
func (el *elaborator) elabFormula(s *spec.Spec, f FormulaNode, binders map[string]string) (*logic.Formula, error) {
	switch x := f.(type) {
	case *FQuant:
		inner := make(map[string]string, len(binders)+len(x.Binders))
		for k, v := range binders {
			inner[k] = v
		}
		vars := make([]*logic.Term, len(x.Binders))
		for i, b := range x.Binders {
			inner[b.Name] = b.Sort
			vars[i] = logic.Var(b.Name, b.Sort)
		}
		body, err := el.elabFormula(s, x.Body, inner)
		if err != nil {
			return nil, err
		}
		if x.Universal {
			return logic.Forall(vars, body), nil
		}
		return logic.Exists(vars, body), nil
	case *FBinary:
		l, err := el.elabFormula(s, x.L, binders)
		if err != nil {
			return nil, err
		}
		r, err := el.elabFormula(s, x.R, binders)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "&":
			return logic.And(l, r), nil
		case "|":
			return logic.Or(l, r), nil
		case "=>":
			return logic.Implies(l, r), nil
		case "<=>":
			return logic.Iff(l, r), nil
		default:
			return nil, fmt.Errorf("speclang: bad connective %q", x.Op)
		}
	case *FNot:
		sub, err := el.elabFormula(s, x.Sub, binders)
		if err != nil {
			return nil, err
		}
		return logic.Not(sub), nil
	case *FIfThenElse:
		c, err := el.elabFormula(s, x.Cond, binders)
		if err != nil {
			return nil, err
		}
		thenF, err := el.elabFormula(s, x.Then, binders)
		if err != nil {
			return nil, err
		}
		if x.Else == nil {
			return logic.Implies(c, thenF), nil
		}
		elseF, err := el.elabFormula(s, x.Else, binders)
		if err != nil {
			return nil, err
		}
		return logic.IfThenElse(c, thenF, elseF), nil
	case *FAtom:
		args := make([]*logic.Term, len(x.Args))
		for i, a := range x.Args {
			t, err := el.elabTerm(s, a, binders)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		op, declared := s.FindOp(x.Name)
		switch {
		case declared:
			if !el.opts.Lenient && len(args) != op.Arity() {
				return nil, fmt.Errorf("%w: predicate %s arity %d used with %d args",
					spec.ErrIllFormed, x.Name, op.Arity(), len(args))
			}
		case el.opts.Lenient:
			profile := spec.Op{Name: x.Name, Args: make([]string, len(args)), Result: spec.BoolSort}
			for i, a := range args {
				profile.Args[i] = a.Sort
			}
			if err := s.AddOp(profile); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: predicate %s", spec.ErrUnknownSymbol, x.Name)
		}
		return logic.Pred(x.Name, args...), nil
	case *FCompare:
		l, err := el.elabTerm(s, x.L, binders)
		if err != nil {
			return nil, err
		}
		r, err := el.elabTerm(s, x.R, binders)
		if err != nil {
			return nil, err
		}
		if x.Op == "=" {
			return logic.Eq(l, r), nil
		}
		// Comparisons become built-in predicates (declared on demand).
		if _, ok := s.FindOp(x.Op); !ok {
			if err := s.AddOp(spec.Op{Name: x.Op, Args: []string{"", ""}, Result: spec.BoolSort}); err != nil {
				return nil, err
			}
		}
		return logic.Pred(x.Op, l, r), nil
	default:
		return nil, fmt.Errorf("speclang: bad formula node %T", f)
	}
}

func (el *elaborator) elabTerm(s *spec.Spec, t TermNode, binders map[string]string) (*logic.Term, error) {
	switch x := t.(type) {
	case *TNumber:
		return logic.Const(x.Text, "Nat"), nil
	case *TName:
		if sortName, bound := binders[x.Name]; bound {
			return logic.Var(x.Name, sortName), nil
		}
		if op, ok := s.FindOp(x.Name); ok {
			if op.Arity() != 0 && !el.opts.Lenient {
				return nil, fmt.Errorf("%w: %s used as constant but has arity %d",
					spec.ErrIllFormed, x.Name, op.Arity())
			}
			return logic.Const(x.Name, op.Result), nil
		}
		if el.opts.Lenient {
			return logic.Var(x.Name, ""), nil
		}
		return nil, fmt.Errorf("%w: %s", ErrUnboundIdent, x.Name)
	case *TApply:
		args := make([]*logic.Term, len(x.Args))
		for i, a := range x.Args {
			arg, err := el.elabTerm(s, a, binders)
			if err != nil {
				return nil, err
			}
			args[i] = arg
		}
		op, ok := s.FindOp(x.Name)
		if !ok {
			if !el.opts.Lenient {
				return nil, fmt.Errorf("%w: function %s", spec.ErrUnknownSymbol, x.Name)
			}
			profile := spec.Op{Name: x.Name, Args: make([]string, len(args)), Result: ""}
			for i, a := range args {
				profile.Args[i] = a.Sort
			}
			if err := s.AddOp(profile); err != nil {
				return nil, err
			}
			op = profile
		}
		if !el.opts.Lenient && len(args) != op.Arity() {
			return nil, fmt.Errorf("%w: function %s arity %d used with %d args",
				spec.ErrIllFormed, x.Name, op.Arity(), len(args))
		}
		return logic.App(x.Name, op.Result, args...), nil
	case *TArith:
		l, err := el.elabTerm(s, x.L, binders)
		if err != nil {
			return nil, err
		}
		r, err := el.elabTerm(s, x.R, binders)
		if err != nil {
			return nil, err
		}
		if _, ok := s.FindOp(x.Op); !ok {
			if err := s.AddOp(spec.Op{Name: x.Op, Args: []string{"", ""}, Result: ""}); err != nil {
				return nil, err
			}
		}
		return logic.App(x.Op, "", l, r), nil
	default:
		return nil, fmt.Errorf("speclang: bad term node %T", t)
	}
}
