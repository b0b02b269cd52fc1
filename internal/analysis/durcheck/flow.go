package durcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// flowState is the must-available durable-write information at one program
// point: avail has a class when a durable write of it dominates the point
// on every path. The pseudo-class "" means "some durable write" (what the
// volatile rule needs); "fn:<name>" marks an unannotated durable-write
// callee (what dur-summary reports at requiring sends).
type flowState struct {
	analysis.Term
	avail analysis.Must[bool]
}

func (s *flowState) Clone() *flowState {
	c := *s
	c.avail = s.avail.Clone()
	return &c
}

func (s *flowState) Join(live []*flowState, at []token.Pos) {
	s.avail = analysis.JoinMust(analysis.Project(live, func(b *flowState) analysis.Must[bool] { return b.avail }), at)
}

func (s *flowState) gen(classes ...string) {
	for _, cls := range classes {
		s.avail.Gen(cls, true)
	}
}

// flow holds durcheck's transfer functions over one function: requiring
// sends and volatile writes are checked against the must-available
// durable writes as the shared walker reaches them.
type flow struct {
	x  *extractor
	fi *funcInfo
	// varKinds maps a local variable to every string constant assigned to
	// it anywhere in the function; a send through the variable must satisfy
	// the requirements of all of them.
	varKinds map[types.Object][]types.Object
}

func (x *extractor) flow(fi *funcInfo) {
	a := &flow{x: x, fi: fi, varKinds: fi.VarKinds()}
	w := &analysis.Flow[*flowState]{Call: a.handleCall, Store: a.checkMutation}
	w.Block(fi.Decl.Body.List, &flowState{avail: analysis.NewMust[bool]()})
}

// handleCall classifies one call: volatile delete, externally visible
// send (direct or via a wrapper), durable write (annotated summary,
// one-level summary, or direct stable/wal mutation).
func (a *flow) handleCall(c *ast.CallExpr, s *flowState) {
	if isDeleteBuiltin(a.fi.Pkg, c.Fun) {
		if len(c.Args) > 0 {
			a.checkMutation(c.Args[0], c.Pos(), s)
		}
		return
	}
	obj := analysis.ObjOf(a.fi.Pkg, c.Fun)
	if obj == nil {
		return
	}
	if idx, isSend := analysis.SendKindArg(obj); isSend {
		if idx < len(c.Args) {
			a.checkSend(c, c.Args[idx], s)
		}
		return
	}
	if fi2 := a.x.funcs.ByObj[obj]; fi2 != nil {
		if idx := fi2.Facts.sendWrapKindIdx; idx >= 0 && idx < len(c.Args) {
			a.checkSend(c, c.Args[idx], s)
		}
		switch {
		case fi2.Facts.annotated:
			s.gen(fi2.Facts.writes...)
			s.gen("")
		case fi2.Facts.reachesDurable:
			s.gen("fn:"+fi2.Name, "")
		}
		return
	}
	if isStableMutator(obj) {
		s.gen("")
		return
	}
	if isWalMutator(obj) {
		s.gen("log", "")
	}
}

// checkMutation enforces the write-ahead rule on volatile writes.
func (a *flow) checkMutation(target ast.Expr, pos token.Pos, s *flowState) {
	name := a.x.volatileTarget(a.fi, target)
	if name == "" || s.avail.Has[""] {
		return
	}
	if killPos, ok := s.avail.KilledAt[""]; ok {
		a.x.Reportf(a.fi.Pkg, pos, RuleVolatile,
			"write to volatile %s is not dominated by a durable write; the branch at %s skips it",
			name, a.fi.ShortPos(killPos))
		return
	}
	a.x.Reportf(a.fi.Pkg, pos, RuleVolatile,
		"write to volatile %s is not dominated by a durable write", name)
}

// checkSend enforces //dur:requires at an externally visible send.
func (a *flow) checkSend(c *ast.CallExpr, kindExpr ast.Expr, s *flowState) {
	objs, resolved := a.fi.KindConsts(a.varKinds, kindExpr)
	if !resolved && a.x.kinds.Declaring[a.fi.Pkg.Types] {
		a.x.Reportf(a.fi.Pkg, c.Pos(), RuleExtract,
			"cannot statically resolve the message kind of this send")
	}
	seen := map[string]bool{}
	for _, obj := range objs {
		class, ok := a.x.kinds.Class[obj]
		if !ok || seen[class] {
			continue
		}
		seen[class] = true
		if s.avail.Has[class] {
			continue
		}
		kind := obj.Name()
		if unnamed := unclassifiedWrites(s); len(unnamed) > 0 {
			a.x.Reportf(a.fi.Pkg, c.Pos(), RuleSummary,
				"send of %s is dominated only by unannotated durable write %s; annotate it with //dur:writes",
				kind, unnamed[0])
			continue
		}
		if killPos, ok := s.avail.KilledAt[class]; ok {
			a.x.Reportf(a.fi.Pkg, c.Pos(), RuleSend,
				"send of %s is not dominated by a durable %q write; the branch at %s skips it",
				kind, class, a.fi.ShortPos(killPos))
			continue
		}
		a.x.Reportf(a.fi.Pkg, c.Pos(), RuleSend,
			"send of %s requires a durable %q write that no path provides", kind, class)
	}
}

// unclassifiedWrites lists the available durable writes that only a
// missing //dur:writes annotation keeps from satisfying a class, sorted.
func unclassifiedWrites(s *flowState) []string {
	var out []string
	for cls := range s.avail.Has {
		if rest, ok := strings.CutPrefix(cls, "fn:"); ok {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out
}
