package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// lockState is the lock information at one program point, tracked per
// transaction expression (the rendered first argument of the manager
// calls, e.g. "txn" — syntactic identity is what one function's call
// sites share).
type lockState struct {
	analysis.Term
	// acquired maps "txn\x00key" to the acquire position — MAY analysis
	// (union at joins): a lock held on any path into a return is a leak.
	acquired analysis.May[token.Pos]
	// released maps a transaction to its release position — MUST analysis
	// (intersection): growing is only convicted after a release that
	// happened on every path.
	released analysis.Must[token.Pos]
	// durable marks transactions whose wal decision record was written —
	// MUST analysis, consumed by the release-before-durable rule.
	durable analysis.Must[bool]
	// lastShard tracks the last constant shard index a transaction
	// acquired through — kept at joins only when all live branches agree.
	lastShard analysis.Must[shardAt]
}

type shardAt struct {
	idx int
	pos token.Pos
}

func (s *lockState) Clone() *lockState {
	return &lockState{
		Term:      s.Term,
		acquired:  s.acquired.Clone(),
		released:  s.released.Clone(),
		durable:   s.durable.Clone(),
		lastShard: s.lastShard.Clone(),
	}
}

func (s *lockState) Join(live []*lockState, at []token.Pos) {
	s.acquired = analysis.JoinMay(analysis.Project(live, func(b *lockState) analysis.May[token.Pos] { return b.acquired }))
	s.released = analysis.JoinMust(analysis.Project(live, func(b *lockState) analysis.Must[token.Pos] { return b.released }), at, nil)
	s.durable = analysis.JoinMust(analysis.Project(live, func(b *lockState) analysis.Must[bool] { return b.durable }), at, nil)
	s.lastShard = analysis.JoinMust(analysis.Project(live, func(b *lockState) analysis.Must[shardAt] { return b.lastShard }), at,
		func(a, b shardAt) bool { return a.idx == b.idx })
}

// flow holds lockcheck's transfer functions over one function: lock
// events, decision records and durability waits update the state, and the
// 2PL, leak, order and hold rules are checked as the shared walker
// reaches them.
type flow struct {
	x  *extractor
	fi *funcInfo
}

func (x *extractor) flow(fi *funcInfo) {
	a := &flow{x: x, fi: fi}
	w := &analysis.Flow[*lockState]{Call: a.handleCall, Return: a.checkLeak, Loop: a.checkLoopOrder}
	s := &lockState{
		acquired:  analysis.May[token.Pos]{},
		released:  analysis.NewMust[token.Pos](),
		durable:   analysis.NewMust[bool](),
		lastShard: analysis.NewMust[shardAt](),
	}
	w.Block(fi.Decl.Body.List, s)
	if !s.Terminated() {
		a.checkLeak(fi.Decl.Body.Rbrace, s)
	}
}

// handleCall classifies one call: a lock event (acquire / release), a
// durable decision record, or a durability wait carrying a continuation.
func (a *flow) handleCall(c *ast.CallExpr, s *lockState) {
	pkg := a.fi.Pkg
	obj := analysis.ObjOf(pkg, c.Fun)
	if obj == nil {
		return
	}
	switch {
	case isManagerMethod(obj, "Acquire") && len(c.Args) >= 2:
		txn, key := exprText(c.Args[0]), exprText(c.Args[1])
		if relPos, ok := s.released.Has[txn]; ok {
			a.x.Reportf(pkg, c.Pos(), RuleTwoPhase,
				"acquires %s for %s after its locks were released at %s; two-phase locking forbids growing after shrinking",
				key, txn, a.fi.ShortPos(relPos))
		}
		s.acquired[txn+"\x00"+key] = c.Pos()
		if ie := managerIndexExpr(c); ie != nil {
			if idx, ok := constIndex(pkg, ie); ok {
				if last, held := s.lastShard.Has[txn]; held && idx < last.idx {
					a.x.Reportf(pkg, c.Pos(), RuleOrder,
						"acquires shard %d for %s after shard %d (%s); cross-shard acquisitions must follow ascending shard-index order, or a detector-blind waits-for cycle can close across managers",
						idx, txn, last.idx, a.fi.ShortPos(last.pos))
				}
				s.lastShard.Gen(txn, shardAt{idx: idx, pos: c.Pos()})
			}
		}
	case isManagerMethod(obj, "ReleaseAll") && len(c.Args) >= 1:
		txn := exprText(c.Args[0])
		if a.fi.Facts.walTxns[txn] && !s.durable.Has[txn] {
			a.x.Reportf(pkg, c.Pos(), RuleHold,
				"releases %s's locks before its durable decision record; the wal commit/abort must land first (strictness protects recovery)",
				txn)
		}
		prefix := txn + "\x00"
		for k := range s.acquired {
			if strings.HasPrefix(k, prefix) {
				delete(s.acquired, k)
			}
		}
		delete(s.lastShard.Has, txn)
		s.released.Gen(txn, c.Pos())
	case isManagerMethod(obj, "Release") && len(c.Args) >= 2:
		txn, key := exprText(c.Args[0]), exprText(c.Args[1])
		delete(s.acquired, txn+"\x00"+key)
		s.released.Gen(txn, c.Pos())
	case isWalDecision(obj) && len(c.Args) >= 1:
		s.durable.Gen(exprText(c.Args[0]), true)
	default:
		if lit := a.x.syncThenCont(pkg, c); lit != nil {
			a.checkContinuation(lit)
		}
	}
}

// checkContinuation scans a stable.SyncThen continuation for lock
// acquisitions: the continuation runs after the durability wait settles,
// so an acquire inside it extends the growing phase past an fsync
// boundary while every already-held lock stays pinned — serialized lock
// waits behind storage latency the 2PL argument never priced in.
func (a *flow) checkContinuation(lit *ast.FuncLit) {
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := analysis.ObjOf(a.fi.Pkg, call.Fun)
		if isManagerMethod(obj, "Acquire") {
			a.x.Reportf(a.fi.Pkg, call.Pos(), RuleHold,
				"acquires a lock inside a stable.SyncThen continuation; the growing phase must complete before the durability wait")
			reported = true
			return false
		}
		for _, callee := range a.x.funcs.Callees(a.fi.Pkg, call) {
			if callee.Facts.reachesAcquire {
				a.x.Reportf(a.fi.Pkg, call.Pos(), RuleHold,
					"calls %s, which acquires locks, inside a stable.SyncThen continuation; the growing phase must complete before the durability wait",
					callee.Name)
				reported = true
				return false
			}
		}
		return true
	})
}

// rangeKey resolves a range statement's key variable and whether the
// ranged expression is a slice or array (index order ascending — a map
// range would visit shards in randomized order).
func (a *flow) rangeKey(v *ast.RangeStmt) (types.Object, bool) {
	id, ok := analysis.Unparen(v.Key).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := a.fi.Pkg.Info.Defs[id]
	if obj == nil {
		obj = a.fi.Pkg.Info.Uses[id]
	}
	if obj == nil {
		return nil, false
	}
	tv, ok := a.fi.Pkg.Info.Types[v.X]
	if !ok {
		return obj, false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return obj, true
	}
	if p, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
		if _, isArr := p.Elem().Underlying().(*types.Array); isArr {
			return obj, true
		}
	}
	return obj, false
}

// checkLoopOrder convicts loops whose bodies acquire locks through
// shard-routed managers in iteration order — the static shape of the
// cross-manager deadlock: two such loops iterating opposite key orders
// close a waits-for cycle neither per-shard detector sees. The one
// exempt shape is ranging over the manager collection itself by ascending
// slice index (s.shards[i] with i the range key over s.shards). Nested
// loops are skipped — they are checked as their own loops.
func (a *flow) checkLoopOrder(loop ast.Stmt, _ *lockState) {
	var body *ast.BlockStmt
	var keyObj types.Object
	var rangeX ast.Expr
	sliceRange := false
	switch v := loop.(type) {
	case *ast.ForStmt:
		body = v.Body
	case *ast.RangeStmt:
		body, rangeX = v.Body, v.X
		keyObj, sliceRange = a.rangeKey(v)
	}
	reported := false
	for _, st := range body.List {
		ast.Inspect(st, func(n ast.Node) bool {
			if reported {
				return false
			}
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			routed, name := a.routedCallee(call)
			if !routed {
				return true
			}
			if sliceRange && keyObj != nil && a.indexedByKey(call, keyObj, rangeX) {
				return true
			}
			a.x.Reportf(a.fi.Pkg, loop.Pos(), RuleOrder,
				"loop body acquires locks through %s with iteration-dependent shard routing; acquisitions must follow ascending shard-index order (sort the iteration by shard first, or annotate //lock:ordered with the reason no cross-manager cycle can form)",
				name)
			reported = true
			return false
		})
		if reported {
			return
		}
	}
}

// routedCallee reports whether a call can acquire through shard-routed
// managers (directly or transitively) and names the offender.
func (a *flow) routedCallee(call *ast.CallExpr) (bool, string) {
	if a.x.isRoutedCall(a.fi.Pkg, call) {
		if obj := analysis.ObjOf(a.fi.Pkg, call.Fun); obj != nil {
			return true, obj.Name()
		}
		return true, "a shard-routed call"
	}
	for _, callee := range a.x.funcs.Callees(a.fi.Pkg, call) {
		if callee.Facts.routedAcquire {
			return true, callee.Name
		}
	}
	return false, ""
}

// indexedByKey reports whether the call's receiver chain indexes the
// ranged collection by the loop's own key variable (s.shards[i].… inside
// `for i := range s.shards`) — ascending slice order by construction.
func (a *flow) indexedByKey(call *ast.CallExpr, keyObj types.Object, rangeX ast.Expr) bool {
	ie := managerIndexExpr(call)
	if ie == nil {
		return false
	}
	id, ok := analysis.Unparen(ie.Index).(*ast.Ident)
	if !ok || a.fi.Pkg.Info.Uses[id] != keyObj {
		return false
	}
	return types.ExprString(analysis.Unparen(ie.X)) == types.ExprString(analysis.Unparen(rangeX))
}

// checkLeak convicts a return path of the function itself (a closure
// returning while the outer function still holds locks is not an exit of
// the transaction) on which an acquired lock survives.
// Only lock-managing functions — both a direct Acquire and a direct
// ReleaseAll in the body — are eligible: a store operation that acquires
// and leaves release to Commit/Abort is the normal strict-2PL split, not
// a leak.
func (a *flow) checkLeak(pos token.Pos, s *lockState) {
	if !a.fi.Facts.directAcquire || !a.fi.Facts.directReleaseAll {
		return
	}
	keys := make([]string, 0, len(s.acquired))
	for k := range s.acquired {
		txn, _, _ := strings.Cut(k, "\x00")
		if a.fi.Facts.deferredRelease[txn] {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	txn, key, _ := strings.Cut(keys[0], "\x00")
	a.x.Reportf(a.fi.Pkg, pos, RuleLeak,
		"returns while %s may still hold %s (acquired at %s) with no ReleaseAll on this path; strict 2PL releases every lock at transaction end",
		txn, key, a.fi.ShortPos(s.acquired[keys[0]]))
}
