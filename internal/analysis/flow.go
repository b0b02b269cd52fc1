package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the last third of the analysis core: the one
// branch-sensitive forward dataflow. The walker owns control flow —
// if/else, switch and type switch with the implicit default
// pass-through, select, zero-iteration loops, return and branch
// termination, defer/go/closure bodies analysed against a snapshot — and
// a layer supplies only its state (built from the Must and May sets
// below) and its transfer functions, as hooks.

// FlowState is what the walker needs from a layer's dataflow state S
// (a pointer type; embed Term for the terminated flag).
type FlowState[S any] interface {
	// Clone snapshots the state for a branch.
	Clone() S
	// Join replaces the receiver with the join of the branch out-states
	// that did not terminate; at[i] is where live[i] forked off.
	Join(live []S, at []token.Pos)
	// Terminated reports that every path through the state has left the
	// current region (returned, or branched away).
	Terminated() bool
	Terminate()
}

// Term is the terminated flag of a FlowState.
type Term struct{ done bool }

// Terminated implements FlowState.
func (t *Term) Terminated() bool { return t.done }

// Terminate implements FlowState.
func (t *Term) Terminate() { t.done = true }

// Flow walks one function body forward. Each function is analyzed once
// from whatever in-state the layer passes to Block — normally an empty
// one: facts established by a caller do not excuse ordering inside the
// callee, which may also be entered on a path without them.
type Flow[S FlowState[S]] struct {
	// Call is the transfer function for every call, in evaluation order.
	Call func(call *ast.CallExpr, s S)
	// Return, when set, sees every return statement of the function
	// itself (not of its closures) after its results were evaluated.
	Return func(pos token.Pos, s S)
	// Store, when set, sees every assignment or inc/dec through an index
	// expression: target is the indexed collection.
	Store func(target ast.Expr, pos token.Pos, s S)

	// litDepth > 0 while walking a function literal's body.
	litDepth int
}

// Block walks a statement list, updating s in place.
func (f *Flow[S]) Block(list []ast.Stmt, s S) {
	for _, st := range list {
		f.stmt(st, s)
	}
}

func (f *Flow[S]) stmt(st ast.Stmt, s S) {
	switch v := st.(type) {
	case nil:
	case *ast.BlockStmt:
		f.Block(v.List, s)
	case *ast.ExprStmt:
		f.expr(v.X, s)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			f.expr(rhs, s)
		}
		for _, lhs := range v.Lhs {
			f.store(lhs, s)
		}
	case *ast.IncDecStmt:
		if !f.store(v.X, s) {
			f.expr(v.X, s)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						f.expr(val, s)
					}
				}
			}
		}
	case *ast.IfStmt:
		f.stmt(v.Init, s)
		f.expr(v.Cond, s)
		then := s.Clone()
		f.stmt(v.Body, then)
		els := s.Clone()
		elsPos := v.Pos()
		if v.Else != nil {
			elsPos = v.Else.Pos()
			f.stmt(v.Else, els)
		}
		f.join(s, []S{then, els}, []token.Pos{v.Body.Pos(), elsPos})
	case *ast.SwitchStmt:
		f.stmt(v.Init, s)
		f.expr(v.Tag, s)
		f.caseBranches(v.Body, v.Pos(), s)
	case *ast.TypeSwitchStmt:
		f.stmt(v.Init, s)
		f.stmt(v.Assign, s)
		f.caseBranches(v.Body, v.Pos(), s)
	case *ast.SelectStmt:
		var branches []S
		var at []token.Pos
		for _, cl := range v.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				b := s.Clone()
				f.stmt(cc.Comm, b)
				f.Block(cc.Body, b)
				branches = append(branches, b)
				at = append(at, cc.Pos())
			}
		}
		if len(branches) > 0 {
			f.join(s, branches, at)
		}
	case *ast.ForStmt:
		f.stmt(v.Init, s)
		f.expr(v.Cond, s)
		// The loop may run zero times: the out-state is the in-state;
		// statements inside are checked against the evolving body state.
		body := s.Clone()
		f.Block(v.Body.List, body)
		f.stmt(v.Post, body)
	case *ast.RangeStmt:
		f.expr(v.X, s)
		f.Block(v.Body.List, s.Clone())
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			f.expr(r, s)
		}
		if f.Return != nil && f.litDepth == 0 {
			f.Return(v.Pos(), s)
		}
		s.Terminate()
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough: conservatively treat the path as
		// leaving the current region — its facts never reach the join.
		s.Terminate()
	case *ast.DeferStmt:
		// Runs at return; it must stand on the facts of its registration.
		f.expr(v.Call, s.Clone())
	case *ast.GoStmt:
		f.expr(v.Call, s.Clone())
	case *ast.SendStmt:
		f.expr(v.Chan, s)
		f.expr(v.Value, s)
	case *ast.LabeledStmt:
		f.stmt(v.Stmt, s)
	}
}

// store handles one assignment target; it reports whether the target was
// an index expression.
func (f *Flow[S]) store(lhs ast.Expr, s S) bool {
	ie, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	f.expr(ie.Index, s)
	if f.Store != nil {
		f.Store(ie.X, ie.Pos(), s)
	}
	return true
}

// caseBranches joins the clauses of a switch or type switch; a missing
// default adds an implicit pass-through branch.
func (f *Flow[S]) caseBranches(body *ast.BlockStmt, pos token.Pos, s S) {
	var branches []S
	var at []token.Pos
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		hasDefault = hasDefault || cc.List == nil
		b := s.Clone()
		for _, e := range cc.List {
			f.expr(e, b)
		}
		f.Block(cc.Body, b)
		branches = append(branches, b)
		at = append(at, cc.Pos())
	}
	if !hasDefault {
		branches = append(branches, s.Clone())
		at = append(at, pos)
	}
	f.join(s, branches, at)
}

// join folds branch out-states back into s. No live branch means every
// path left the region.
func (f *Flow[S]) join(s S, branches []S, at []token.Pos) {
	var live []S
	var liveAt []token.Pos
	for i, b := range branches {
		if !b.Terminated() {
			live = append(live, b)
			liveAt = append(liveAt, at[i])
		}
	}
	if len(live) == 0 {
		s.Terminate()
		return
	}
	s.Join(live, liveAt)
}

// expr walks an expression, handing calls to the transfer function and
// analysing function literals against a snapshot: a closure may run
// later, so it cannot count on facts established after its creation, and
// its own events must not flow into the creation point.
func (f *Flow[S]) expr(e ast.Expr, s S) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			f.litDepth++
			f.Block(v.Body.List, s.Clone())
			f.litDepth--
			return false
		case *ast.CallExpr:
			f.Call(v, s)
		}
		return true
	})
}

// Must is a must-set: facts keyed by string that hold on every path into
// a point. Joins intersect, remembering for each fact only some paths
// provide the branch that lost it.
type Must[V any] struct {
	Has map[string]V
	// KilledAt is, per fact lost at a join, the position of a branch that
	// skipped it — what findings blame when the fact exists on another
	// path.
	KilledAt map[string]token.Pos
}

// NewMust returns an empty must-set.
func NewMust[V any]() Must[V] {
	return Must[V]{Has: map[string]V{}, KilledAt: map[string]token.Pos{}}
}

// Gen establishes a fact.
func (m Must[V]) Gen(key string, v V) {
	m.Has[key] = v
	delete(m.KilledAt, key)
}

// Clone copies the set.
func (m Must[V]) Clone() Must[V] {
	return Must[V]{Has: May[V](m.Has).Clone(), KilledAt: May[token.Pos](m.KilledAt).Clone()}
}

// JoinMust intersects the live branches' sets: a fact survives when every
// branch has it (the first branch's value is kept).
func JoinMust[V any](live []Must[V], at []token.Pos) Must[V] {
	out := NewMust[V]()
	for key, v := range live[0].Has {
		all := true
		for _, b := range live[1:] {
			if _, ok := b.Has[key]; !ok {
				all = false
				break
			}
		}
		if all {
			out.Has[key] = v
		}
	}
	for _, b := range live {
		for key, p := range b.KilledAt {
			if _, done := out.KilledAt[key]; !done {
				out.KilledAt[key] = p
			}
		}
	}
	for _, b := range live {
		for key := range b.Has {
			if _, done := out.KilledAt[key]; done {
				continue
			}
			for j, ob := range live {
				if _, ok := ob.Has[key]; !ok {
					out.KilledAt[key] = at[j]
					break
				}
			}
		}
	}
	for key := range out.Has {
		delete(out.KilledAt, key)
	}
	return out
}

// May is a may-set: facts keyed by string that hold on some path into a
// point. Joins take the union; the first branch's value wins.
type May[V any] map[string]V

// Clone copies the set.
func (m May[V]) Clone() May[V] {
	c := make(May[V], len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// JoinMay unions the live branches' sets.
func JoinMay[V any](live []May[V]) May[V] {
	out := May[V]{}
	for _, b := range live {
		for k, v := range b {
			if _, ok := out[k]; !ok {
				out[k] = v
			}
		}
	}
	return out
}

// Project maps the branch states to one of their component sets, the
// shape the Join helpers take.
func Project[S, T any](states []S, part func(S) T) []T {
	out := make([]T, len(states))
	for i, s := range states {
		out[i] = part(s)
	}
	return out
}
