package lockcheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"speccat/internal/analysis"
)

// extractor accumulates the lock-discipline facts of one load.
type extractor struct {
	*analysis.Scope
	// funcs indexes every function declaration of the load; the roots are
	// the sibling layers' //fsm:handler, //dur:handler and //comm:op
	// functions plus this layer's own //lock:handler.
	funcs *analysis.FuncIndex[facts]
	rep   *Report
}

type funcInfo = analysis.Func[facts]

// facts is the per-function classification the flow analysis consumes.
type facts struct {
	// directAcquire / directRelease: the body itself calls
	// locking.Manager.Acquire / Release / ReleaseAll; directReleaseAll
	// narrows to ReleaseAll (the lock-leak eligibility pair).
	directAcquire    bool
	directRelease    bool
	directReleaseAll bool
	// deferredRelease holds the transaction expressions ReleaseAll'd in
	// defer statements — those paths are release-covered at every return.
	deferredRelease map[string]bool
	// walTxns holds the transaction expressions whose wal.Log.Commit/Abort
	// decision record this body writes (the lock-hold(b) scope).
	walTxns map[string]bool
	// reachesAcquire: directAcquire, or calls (statically or through an
	// interface) a function that reaches an acquire.
	reachesAcquire bool
	// routedAcquire: the body contains a shard-routed acquire-reaching call
	// (see isRoutedCall), or calls a function that does.
	routedAcquire bool
	// syncWrapIdx is the flattened parameter index this function forwards
	// as the continuation to stable.Store.SyncThen; -1 otherwise.
	syncWrapIdx int
}

func newExtractor(pkgs []*analysis.Package) *extractor {
	return &extractor{
		Scope: analysis.NewScope(pkgs, "lock", RuleExtract, verbs),
		funcs: analysis.IndexFuncs[facts](pkgs, "fsm:handler", "dur:handler", "comm:op", "lock:handler"),
		rep:   &Report{},
	}
}

// extract runs the full pipeline: binding, per-function fact computation,
// the two reachability closures, and the flow analysis of every function
// reachable from a root through static and interface-bridged calls.
func (x *extractor) extract() *Report {
	for _, fi := range x.funcs.Sorted() {
		for _, d := range x.Directives(fi.Decl.Doc) {
			x.Bind(d) // //lock:handler is the only bound verb
		}
	}
	x.computeFacts()
	analyzed := x.funcs.Reachable(nil)
	x.countCoverage(analyzed)
	for _, fi := range analyzed {
		x.flow(fi)
	}
	x.rep.Analyzed = len(analyzed)
	x.ReportUnbound()
	x.rep.Roots = x.funcs.RootNames()
	return x.rep
}

// computeFacts fills the per-function classification fields: direct lock
// events, deferred releases, wal decision writes, SyncThen forwarding —
// then runs the two reachability closures (reachesAcquire, routedAcquire)
// to a fixpoint over static and interface-bridged calls.
func (x *extractor) computeFacts() {
	for _, fi := range x.funcs.Sorted() {
		x.computeFuncFacts(fi)
	}
	// One propagation pass for wrappers of syncThen wrappers.
	for _, fi := range x.funcs.Sorted() {
		if fi.Facts.syncWrapIdx >= 0 {
			continue
		}
		fi.EachCall(func(call *ast.CallExpr) {
			callee := x.funcs.Static(fi.Pkg, call)
			if callee == nil || callee.Facts.syncWrapIdx < 0 || callee.Facts.syncWrapIdx >= len(call.Args) {
				return
			}
			if pidx, isParam := fi.ParamIndex(call.Args[callee.Facts.syncWrapIdx]); isParam {
				fi.Facts.syncWrapIdx = pidx
			}
		})
	}
	x.funcs.Close(func(fi *funcInfo) bool { return fi.Facts.reachesAcquire },
		func(fi *funcInfo) { fi.Facts.reachesAcquire = true })
	// routedAcquire closure: seed with bodies containing a base routed
	// call, then propagate through callers.
	for _, fi := range x.funcs.Sorted() {
		fi.EachCall(func(call *ast.CallExpr) {
			if x.isRoutedCall(fi.Pkg, call) {
				fi.Facts.routedAcquire = true
			}
		})
	}
	x.funcs.Close(func(fi *funcInfo) bool { return fi.Facts.routedAcquire },
		func(fi *funcInfo) { fi.Facts.routedAcquire = true })
}

func (x *extractor) computeFuncFacts(fi *funcInfo) {
	f := &fi.Facts
	f.syncWrapIdx = -1
	f.deferredRelease = map[string]bool{}
	f.walTxns = map[string]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeferStmt:
			if isManagerMethod(analysis.ObjOf(fi.Pkg, v.Call.Fun), "ReleaseAll") && len(v.Call.Args) > 0 {
				f.deferredRelease[exprText(v.Call.Args[0])] = true
			}
		case *ast.CallExpr:
			obj := analysis.ObjOf(fi.Pkg, v.Fun)
			switch {
			case isManagerMethod(obj, "Acquire"):
				f.directAcquire = true
				f.reachesAcquire = true
			case isManagerMethod(obj, "ReleaseAll"):
				f.directRelease = true
				f.directReleaseAll = true
			case isManagerMethod(obj, "Release"):
				f.directRelease = true
			case isWalDecision(obj) && len(v.Args) > 0:
				f.walTxns[exprText(v.Args[0])] = true
			case isSyncThen(obj) && len(v.Args) > 0:
				if pidx, isParam := fi.ParamIndex(v.Args[0]); isParam {
					f.syncWrapIdx = pidx
				}
			}
		}
		return true
	})
}

// exprText renders a transaction or key argument; syntactic identity is
// what one function's call sites share.
func exprText(e ast.Expr) string { return types.ExprString(analysis.Unparen(e)) }

// isRoutedCall reports whether a call can acquire locks through
// shard-routed managers: a direct Acquire whose manager expression indexes
// a collection with a non-constant index, a method on a multi-manager type
// that reaches an acquire, or an interface-method call with such an
// implementation in the load.
func (x *extractor) isRoutedCall(pkg *analysis.Package, call *ast.CallExpr) bool {
	if isManagerMethod(analysis.ObjOf(pkg, call.Fun), "Acquire") {
		ie := managerIndexExpr(call)
		if ie == nil {
			return false
		}
		_, isConst := constIndex(pkg, ie)
		return !isConst
	}
	for _, fi := range x.funcs.Callees(pkg, call) {
		named := fi.RecvNamed()
		if named != nil && fi.Facts.reachesAcquire && multiManager(named) {
			return true
		}
	}
	return false
}

// countCoverage fills the non-vacuity counters over the analyzed set.
func (x *extractor) countCoverage(analyzed []*funcInfo) {
	for _, fi := range analyzed {
		fi.EachCall(func(call *ast.CallExpr) {
			obj := analysis.ObjOf(fi.Pkg, call.Fun)
			switch {
			case isManagerMethod(obj, "Acquire"):
				x.rep.AcquireSites++
			case isManagerMethod(obj, "Release", "ReleaseAll"):
				x.rep.ReleaseSites++
			}
			if x.isRoutedCall(fi.Pkg, call) {
				x.rep.RoutedCalls++
			}
			if x.syncThenCont(fi.Pkg, call) != nil {
				x.rep.SyncThenSites++
			}
		})
	}
}

// syncThenCont returns the continuation function literal a call hands to
// stable.Store.SyncThen, directly or through a wrapper. Calls that forward
// the enclosing function's own continuation parameter contribute nothing —
// their call sites carry the literal.
func (x *extractor) syncThenCont(pkg *analysis.Package, call *ast.CallExpr) *ast.FuncLit {
	idx := -1
	if isSyncThen(analysis.ObjOf(pkg, call.Fun)) {
		idx = 0
	} else if callee := x.funcs.Static(pkg, call); callee != nil {
		idx = callee.Facts.syncWrapIdx
	}
	if idx < 0 || idx >= len(call.Args) {
		return nil
	}
	lit, _ := analysis.Unparen(call.Args[idx]).(*ast.FuncLit)
	return lit
}

// --- object and type classification helpers --------------------------------

// isManagerMethod recognizes the locking.Manager lock-event API.
func isManagerMethod(obj types.Object, names ...string) bool {
	return analysis.IsMethodOn(obj, "internal/locking", "Manager", names...)
}

// isWalDecision recognizes the wal.Log decision records — the durable
// point strictness must reach before ReleaseAll.
func isWalDecision(obj types.Object) bool {
	return analysis.IsMethodOn(obj, "internal/wal", "Log", "Commit", "Abort")
}

// isSyncThen recognizes the stable.Store durability-wait primitive.
func isSyncThen(obj types.Object) bool {
	return analysis.IsMethodOn(obj, "internal/stable", "Store", "SyncThen")
}

// ownsManager reports whether t (a named struct, possibly behind a
// pointer) embeds its own locking.Manager — the single-manager shape.
func ownsManager(t types.Type) bool {
	st := underlyingStruct(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if named := analysis.NamedOf(st.Field(i).Type()); named != nil {
			tn := named.Obj()
			if tn.Name() == "Manager" && tn.Pkg() != nil && strings.HasSuffix(tn.Pkg().Path(), "internal/locking") {
				return true
			}
		}
	}
	return false
}

// multiManager reports whether t routes between several lock managers: a
// struct with a slice, array or map of manager-owning elements. This is
// the shape whose per-element deadlock detectors are mutually blind.
func multiManager(t types.Type) bool {
	st := underlyingStruct(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		var elem types.Type
		switch ft := st.Field(i).Type().Underlying().(type) {
		case *types.Slice:
			elem = ft.Elem()
		case *types.Array:
			elem = ft.Elem()
		case *types.Map:
			elem = ft.Elem()
		default:
			continue
		}
		if ownsManager(elem) {
			return true
		}
	}
	return false
}

func underlyingStruct(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// managerIndexExpr walks the selector chain of a manager-method call's
// receiver expression and returns the first index expression in it
// (s.shards[i].locks → s.shards[i]), nil when the chain has none.
func managerIndexExpr(call *ast.CallExpr) *ast.IndexExpr {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	e := sel.X
	for {
		switch v := analysis.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			return v
		case *ast.CallExpr:
			return managerIndexExpr(v)
		default:
			return nil
		}
	}
}

// constIndex evaluates an index expression's index to a constant int.
func constIndex(pkg *analysis.Package, ie *ast.IndexExpr) (int, bool) {
	tv, ok := pkg.Info.Types[ie.Index]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	return int(v), exact
}
