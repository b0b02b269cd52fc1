package lockcheck

import (
	"go/ast"
	"go/types"

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
// the reachesAcquire closure, and the flow analysis of every function
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
// then closes reachesAcquire to a fixpoint over static and
// interface-bridged calls.
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

// --- object classification helpers -------------------------------------------

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
