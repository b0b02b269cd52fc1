package lockcheck

import (
	"go/ast"
	"go/token"
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
}

func (s *lockState) Clone() *lockState {
	return &lockState{
		Term:     s.Term,
		acquired: s.acquired.Clone(),
		released: s.released.Clone(),
		durable:  s.durable.Clone(),
	}
}

func (s *lockState) Join(live []*lockState, at []token.Pos) {
	s.acquired = analysis.JoinMay(analysis.Project(live, func(b *lockState) analysis.May[token.Pos] { return b.acquired }))
	s.released = analysis.JoinMust(analysis.Project(live, func(b *lockState) analysis.Must[token.Pos] { return b.released }), at)
	s.durable = analysis.JoinMust(analysis.Project(live, func(b *lockState) analysis.Must[bool] { return b.durable }), at)
}

// flow holds lockcheck's transfer functions over one function: lock
// events, decision records and durability waits update the state, and the
// 2PL, leak and hold rules are checked as the shared walker
// reaches them.
type flow struct {
	x  *extractor
	fi *funcInfo
}

func (x *extractor) flow(fi *funcInfo) {
	a := &flow{x: x, fi: fi}
	w := &analysis.Flow[*lockState]{Call: a.handleCall, Return: a.checkLeak}
	s := &lockState{
		acquired: analysis.May[token.Pos]{},
		released: analysis.NewMust[token.Pos](),
		durable:  analysis.NewMust[bool](),
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
