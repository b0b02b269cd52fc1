package fsmcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// extractor accumulates machines and diagnostics across packages.
type extractor struct {
	*analysis.Scope
	pkgs []*analysis.Package

	machines map[string]*Machine
	// lineDirs maps file -> line -> directives starting on that line, for
	// the call-trailing //fsm:from and //fsm:to annotations.
	lineDirs map[string]map[int][]analysis.Directive

	stateByObj map[types.Object]*stateRef
	kindByObj  map[types.Object]*kindRef
	emitByObj  map[types.Object]*emitSpec
	// stateTypes maps machine name -> the Go type of its state constants.
	stateTypes map[string]types.Type

	handlers []*handlerWork
	encodes  []*codecHalf
	decodes  []*codecHalf
	rawEdges map[string][]Edge // machine -> undeduplicated edges
}

type stateRef struct {
	machine string
	decl    *StateDecl
}

type kindRef struct {
	machine string
	decl    *KindDecl
}

type emitSpec struct {
	machine string
	role    string
	fromIdx int
	toIdx   int
}

// handlerWork carries one handler's AST through the per-body checks.
type handlerWork struct {
	h       *Handler
	decl    *ast.FuncDecl
	pkg     *analysis.Package
	handled map[*kindRef]bool
}

// codecHalf is one //fsm:encode or //fsm:decode function before pairing.
type codecHalf struct {
	machine string
	typ     types.Type
	pkg     *analysis.Package
	pos     token.Position
	name    string
	// mapping is const->string for encoders, string->const for decoders.
	mapping map[string]string
	// order lists the mapping keys in source order.
	order []string
	// defaultErr reports whether the decoder's default returns a non-nil
	// error (rather than silently yielding a constant).
	defaultErr bool
	hasDefault bool
}

func newExtractor(pkgs []*analysis.Package) *extractor {
	return &extractor{
		Scope:      analysis.NewScope(pkgs, "fsm", RuleExtract, verbs),
		pkgs:       pkgs,
		machines:   map[string]*Machine{},
		lineDirs:   map[string]map[int][]analysis.Directive{},
		stateByObj: map[types.Object]*stateRef{},
		kindByObj:  map[types.Object]*kindRef{},
		emitByObj:  map[types.Object]*emitSpec{},
		stateTypes: map[string]types.Type{},
		rawEdges:   map[string][]Edge{},
	}
}

func (x *extractor) machine(name string) *Machine {
	m, ok := x.machines[name]
	if !ok {
		m = &Machine{Name: name}
		x.machines[name] = m
	}
	return m
}

// extract runs all extraction passes over the loaded packages.
func (x *extractor) extract() *Report {
	for _, d := range x.Placed() {
		x.place(d)
	}
	analysis.EachConstSpec(x.pkgs, func(pkg *analysis.Package, spec *ast.ValueSpec) {
		for _, d := range x.Directives(spec.Comment) {
			x.bindConstDirective(pkg, spec, d)
		}
	})
	for _, pkg := range x.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					for _, d := range x.Directives(fn.Doc) {
						x.bindFuncDirective(pkg, fn, d)
					}
				}
			}
		}
	}
	for _, w := range x.handlers {
		x.analyzeHandler(w)
	}
	x.checkExhaustive()
	x.extractCalls()
	x.finalizeEdges()
	x.pairCodecs()
	x.ReportUnbound()
	return &Report{Machines: x.machines}
}

// place records one position-keyed directive: a call-trailing //fsm:from
// or //fsm:to, or a free-standing //fsm:model-extra justification.
func (x *extractor) place(d analysis.Directive) {
	if d.Verb != "model-extra" {
		byLine := x.lineDirs[d.Pos.Filename]
		if byLine == nil {
			byLine = map[int][]analysis.Directive{}
			x.lineDirs[d.Pos.Filename] = byLine
		}
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d)
		return
	}
	from, to, ok := strings.Cut(d.Args[2], "->")
	if !ok || from == "" || to == "" {
		x.ReportAt(d.Pos, RuleExtract, "//fsm:model-extra edge %q is not <from>-><to>", d.Args[2])
		return
	}
	m := x.machine(d.Args[0])
	m.Extras = append(m.Extras, &ModelExtra{
		Machine: d.Args[0], Role: d.Args[1], From: from, To: to,
		Reason: strings.Join(d.Args[3:], " "), Pos: d.Pos,
	})
}

// bindConstDirective binds an //fsm:state or //fsm:msg trailing annotation
// to its constant declaration.
func (x *extractor) bindConstDirective(pkg *analysis.Package, spec *ast.ValueSpec, d analysis.Directive) {
	if d.Verb != "state" && d.Verb != "msg" {
		return
	}
	if len(spec.Names) != 1 {
		x.ReportAt(d.Pos, RuleExtract, "//fsm:%s must annotate a single-name constant", d.Verb)
		return
	}
	cnst, ok := pkg.Info.Defs[spec.Names[0]].(*types.Const)
	if !ok {
		x.ReportAt(d.Pos, RuleExtract, "//fsm:%s must annotate a constant", d.Verb)
		return
	}
	x.Bind(d)
	m := x.machine(d.Args[0])
	pos := pkg.Fset.Position(spec.Names[0].Pos())
	switch d.Verb {
	case "state":
		sd := &StateDecl{Name: cnst.Name(), Alias: d.Args[1], Pos: pos}
		m.States = append(m.States, sd)
		x.stateByObj[cnst] = &stateRef{machine: m.Name, decl: sd}
		if _, ok := x.stateTypes[m.Name]; !ok {
			x.stateTypes[m.Name] = cnst.Type()
		}
	case "msg":
		if cnst.Val().Kind() != constant.String {
			x.ReportAt(d.Pos, RuleExtract, "//fsm:msg must annotate a string constant")
			return
		}
		kd := &KindDecl{Name: cnst.Name(), Value: constant.StringVal(cnst.Val()), Role: d.Args[1], Pos: pos}
		m.Kinds = append(m.Kinds, kd)
		x.kindByObj[cnst] = &kindRef{machine: m.Name, decl: kd}
	}
}

// bindFuncDirective binds an //fsm:handler, //fsm:emit, //fsm:encode or
// //fsm:decode doc annotation to its function.
func (x *extractor) bindFuncDirective(pkg *analysis.Package, fn *ast.FuncDecl, d analysis.Directive) {
	switch d.Verb {
	case "handler":
		x.Bind(d)
		m := x.machine(d.Args[0])
		h := &Handler{
			Machine:  d.Args[0],
			Role:     d.Args[1],
			FuncName: fn.Name.Name,
			Pos:      pkg.Fset.Position(fn.Name.Pos()),
			Terminal: fn.Type.Results == nil || len(fn.Type.Results.List) == 0,
		}
		m.Handlers = append(m.Handlers, h)
		x.handlers = append(x.handlers, &handlerWork{h: h, decl: fn, pkg: pkg, handled: map[*kindRef]bool{}})
	case "emit":
		x.Bind(d)
		x.bindEmit(pkg, fn, d)
	case "encode":
		x.Bind(d)
		x.bindEncode(pkg, fn, d)
	case "decode":
		x.Bind(d)
		x.bindDecode(pkg, fn, d)
	}
}

// bindEmit registers an emit function: its call sites become transitions.
// The from and to arguments are located by type — the function must take
// exactly two parameters of the machine's state type, in (from, to) order.
func (x *extractor) bindEmit(pkg *analysis.Package, fn *ast.FuncDecl, d analysis.Directive) {
	machine := d.Args[0]
	stateType, ok := x.stateTypes[machine]
	if !ok {
		x.ReportAt(d.Pos, RuleExtract, "machine %s has an //fsm:emit but no //fsm:state constants", machine)
		return
	}
	var idx []int
	pos := 0
	for _, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		ft := pkg.Info.TypeOf(field.Type)
		for i := 0; i < n; i++ {
			if ft != nil && types.Identical(ft, stateType) {
				idx = append(idx, pos)
			}
			pos++
		}
	}
	if len(idx) != 2 {
		x.ReportAt(d.Pos, RuleExtract, "//fsm:emit function %s must take exactly two %s parameters (from, to), has %d", fn.Name.Name, stateType, len(idx))
		return
	}
	obj := pkg.Info.Defs[fn.Name]
	if obj == nil {
		return
	}
	x.emitByObj[obj] = &emitSpec{machine: machine, role: d.Args[1], fromIdx: idx[0], toIdx: idx[1]}
}

// ---- handler body analysis ----

// analyzeHandler checks one handler's dispatch for exhaustiveness-relevant
// structure and silent drops.
func (x *extractor) analyzeHandler(w *handlerWork) {
	pkg := w.pkg
	var paramObj types.Object
	if fl := w.decl.Type.Params; fl != nil && len(fl.List) > 0 && len(fl.List[0].Names) > 0 {
		paramObj = pkg.Info.Defs[fl.List[0].Names[0]]
	}
	if paramObj == nil {
		x.Reportf(pkg, w.decl.Pos(), RuleExtract, "handler %s has no named message parameter", w.h.FuncName)
		return
	}
	if w.decl.Body == nil {
		return
	}
	// okObjs collects the ok results of <param>.Payload.(T) assertions so
	// their !ok branches can be checked for silent drops.
	okObjs := map[types.Object]bool{}
	ast.Inspect(w.decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			recordPayloadAssert(pkg, st, paramObj, okObjs)
		case *ast.SwitchStmt:
			if isKindSelector(pkg, st.Tag, paramObj) {
				x.analyzeDispatchSwitch(w, st)
			}
		case *ast.IfStmt:
			x.analyzeHandlerIf(w, st, paramObj, okObjs)
		}
		return true
	})
}

// recordPayloadAssert notes `v, ok := <param>.Payload.(T)` assertions.
func recordPayloadAssert(pkg *analysis.Package, st *ast.AssignStmt, paramObj types.Object, okObjs map[types.Object]bool) {
	if st.Tok != token.DEFINE || len(st.Lhs) != 2 || len(st.Rhs) != 1 {
		return
	}
	ta, ok := st.Rhs[0].(*ast.TypeAssertExpr)
	if !ok || ta.Type == nil {
		return
	}
	sel, ok := ta.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Payload" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Info.Uses[id] != paramObj {
		return
	}
	okIdent, ok := st.Lhs[1].(*ast.Ident)
	if !ok {
		return
	}
	if obj := pkg.Info.Defs[okIdent]; obj != nil {
		okObjs[obj] = true
	}
}

// isKindSelector reports whether e is `<param>.Kind`.
func isKindSelector(pkg *analysis.Package, e ast.Expr, paramObj types.Object) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Kind" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pkg.Info.Uses[id] == paramObj
}

// analyzeDispatchSwitch records the kinds a dispatch switch consumes and
// checks its default clause.
func (x *extractor) analyzeDispatchSwitch(w *handlerWork, st *ast.SwitchStmt) {
	pkg := w.pkg
	var defaultClause *ast.CaseClause
	for _, s := range st.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			kr := x.kindOf(pkg, e)
			if kr == nil {
				continue
			}
			x.consume(w, kr, e.Pos())
		}
	}
	if !w.h.Terminal {
		return
	}
	if defaultClause == nil {
		x.Reportf(pkg, st.Pos(), RuleSilentDrop, "terminal handler %s dispatches without a default: unknown kinds are silently dropped", w.h.FuncName)
		return
	}
	if inert(defaultClause.Body) {
		pos := defaultClause.Pos()
		if len(defaultClause.Body) > 0 {
			pos = defaultClause.Body[0].Pos()
		}
		x.Reportf(pkg, pos, RuleSilentDrop, "terminal handler %s drops unknown kinds without accounting in its default", w.h.FuncName)
	}
}

// analyzeHandlerIf checks kind guards (`if m.Kind != K`) and payload
// assertion failures (`if !ok`) for silent drops, and records guarded
// kinds as consumed.
func (x *extractor) analyzeHandlerIf(w *handlerWork, st *ast.IfStmt, paramObj types.Object, okObjs map[types.Object]bool) {
	pkg := w.pkg
	exits := endsInReturn(st.Body)
	for _, d := range disjuncts(st.Cond) {
		switch c := d.(type) {
		case *ast.BinaryExpr:
			if c.Op != token.NEQ && c.Op != token.EQL {
				continue
			}
			var kindExpr ast.Expr
			if isKindSelector(pkg, c.X, paramObj) {
				kindExpr = c.Y
			} else if isKindSelector(pkg, c.Y, paramObj) {
				kindExpr = c.X
			} else {
				continue
			}
			kr := x.kindOf(pkg, kindExpr)
			if kr == nil {
				continue
			}
			x.consume(w, kr, kindExpr.Pos())
			// `if m.Kind != K { ...drop... }` in a terminal handler must
			// account for the traffic it turns away.
			if c.Op == token.NEQ && exits && w.h.Terminal && inert(st.Body.List) {
				x.Reportf(pkg, dropPos(st), RuleSilentDrop, "terminal handler %s drops non-%s kinds without accounting", w.h.FuncName, kr.decl.Name)
			}
		case *ast.UnaryExpr:
			if c.Op != token.NOT {
				continue
			}
			id, ok := c.X.(*ast.Ident)
			if !ok || !okObjs[pkg.Info.Uses[id]] {
				continue
			}
			// Only the first !ok check after the assertion is the decode
			// failure branch; later tests of the same variable (e.g. reused
			// by a map lookup) are ordinary protocol logic.
			delete(okObjs, pkg.Info.Uses[id])
			if inert(st.Body.List) {
				x.Reportf(pkg, dropPos(st), RuleSilentDrop, "handler %s drops a message with an undecodable payload without accounting", w.h.FuncName)
			}
		}
	}
}

// consume records a handler consuming a kind and flags cross-role overlap.
func (x *extractor) consume(w *handlerWork, kr *kindRef, pos token.Pos) {
	if kr.machine == w.h.Machine && kr.decl.Role != w.h.Role {
		x.Reportf(w.pkg, pos, RuleDeterminism, "kind %s is declared for role %q but consumed by %q handler %s", kr.decl.Name, kr.decl.Role, w.h.Role, w.h.FuncName)
		return
	}
	if !w.handled[kr] {
		w.handled[kr] = true
		kr.decl.ConsumedBy = append(kr.decl.ConsumedBy, w.h.FuncName)
	}
}

// dropPos anchors a silent-drop finding on the dropping branch's first
// statement (so an //fsm:ignore above that line covers it), falling back
// to the if statement itself.
func dropPos(st *ast.IfStmt) token.Pos {
	if len(st.Body.List) > 0 {
		return st.Body.List[0].Pos()
	}
	return st.Pos()
}

// inert reports whether a branch body does nothing but return values free
// of calls — the shape of a silent drop.
func inert(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		r, ok := s.(*ast.ReturnStmt)
		if !ok {
			return false
		}
		for _, e := range r.Results {
			if containsCall(e) {
				return false
			}
		}
	}
	return true
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func endsInReturn(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// disjuncts flattens a || chain.
func disjuncts(e ast.Expr) []ast.Expr {
	switch v := e.(type) {
	case *ast.BinaryExpr:
		if v.Op == token.LOR {
			return append(disjuncts(v.X), disjuncts(v.Y)...)
		}
	case *ast.ParenExpr:
		return disjuncts(v.X)
	}
	return []ast.Expr{e}
}

// checkExhaustive verifies every declared kind is consumed by exactly the
// handler of its role.
func (x *extractor) checkExhaustive() {
	byRole := map[string][]*handlerWork{}
	for _, w := range x.handlers {
		key := w.h.Machine + "\x00" + w.h.Role
		byRole[key] = append(byRole[key], w)
		if n := len(byRole[key]); n > 1 {
			x.Reportf(w.pkg, w.decl.Name.Pos(), RuleDeterminism, "role %q of machine %s has %d handlers; dispatch is ambiguous", w.h.Role, w.h.Machine, n)
		}
	}
	for _, name := range (&Report{Machines: x.machines}).MachineNames() {
		m := x.machines[name]
		for _, kd := range m.Kinds {
			ws := byRole[m.Name+"\x00"+kd.Role]
			if len(ws) == 0 {
				x.ReportAt(kd.Pos, RuleExhaustive, "kind %s: no //fsm:handler for role %q of machine %s consumes it", kd.Name, kd.Role, m.Name)
				continue
			}
			if len(kd.ConsumedBy) == 0 {
				w := ws[0]
				x.Reportf(w.pkg, w.decl.Name.Pos(), RuleExhaustive, "handler %s does not handle declared kind %s (machine %s, role %q)", w.h.FuncName, kd.Name, m.Name, kd.Role)
			}
		}
	}
}

// ---- emit call extraction and kind production ----

// extractCalls walks every function body, marking produced kinds and
// turning emit call sites into transitions.
func (x *extractor) extractCalls() {
	for _, pkg := range x.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, a := range call.Args {
						if kr := x.kindOf(pkg, a); kr != nil {
							kr.decl.Produced = true
						}
					}
					if spec := x.emitByObj[analysis.ObjOf(pkg, call.Fun)]; spec != nil {
						x.extractEdges(pkg, fn, call, spec)
					}
					return true
				})
			}
		}
	}
}

// kindOf resolves an expression to an annotated kind constant.
func (x *extractor) kindOf(pkg *analysis.Package, e ast.Expr) *kindRef {
	return x.kindByObj[analysis.ObjOf(pkg, e)]
}

// stateOf resolves an expression to an annotated state constant.
func (x *extractor) stateOf(pkg *analysis.Package, e ast.Expr) *stateRef {
	return x.stateByObj[analysis.ObjOf(pkg, e)]
}

// extractEdges resolves the from and to argument of one emit call into
// alias sets and records their cross product.
func (x *extractor) extractEdges(pkg *analysis.Package, fn *ast.FuncDecl, call *ast.CallExpr, spec *emitSpec) {
	if len(call.Args) <= spec.toIdx {
		return
	}
	m := x.machine(spec.machine)
	from, fsrc := x.resolveStates(pkg, fn, call, call.Args[spec.fromIdx], m, "from")
	to, tsrc := x.resolveStates(pkg, fn, call, call.Args[spec.toIdx], m, "to")
	if from == nil || to == nil {
		return
	}
	src := fsrc
	if tsrc != fsrc {
		src = fsrc + "," + tsrc
	}
	pos := pkg.Fset.Position(call.Pos())
	for _, f := range from {
		for _, t := range to {
			if f == t {
				continue // runtime emit suppresses self-loops too
			}
			x.rawEdges[m.Name] = append(x.rawEdges[m.Name], Edge{
				Role: spec.role, From: f, To: t, Pos: pos, Source: src,
			})
		}
	}
}

// resolveStates determines the alias set of one emit argument: a state
// constant directly, a trailing //fsm:from or //fsm:to annotation, or a
// dominating state guard in the enclosing function.
func (x *extractor) resolveStates(pkg *analysis.Package, fn *ast.FuncDecl, call *ast.CallExpr, arg ast.Expr, m *Machine, which string) ([]string, string) {
	if sr := x.stateOf(pkg, arg); sr != nil && sr.machine == m.Name {
		return []string{sr.decl.Alias}, "const"
	}
	callPos := pkg.Fset.Position(call.Pos())
	for _, d := range x.lineDirs[callPos.Filename][callPos.Line] {
		if d.Verb != which {
			continue
		}
		var aliases []string
		for _, a := range strings.Split(d.Args[0], ",") {
			a = strings.TrimSpace(a)
			if m.stateByAlias(a) == nil {
				x.Reportf(pkg, call.Pos(), RuleExtract, "//fsm:%s names unknown state %q of machine %s", which, a, m.Name)
				return nil, ""
			}
			aliases = append(aliases, a)
		}
		return aliases, "annotated"
	}
	if aliases := x.inferGuard(pkg, fn, call, arg, m); aliases != nil {
		return aliases, "guard"
	}
	x.Reportf(pkg, call.Pos(), RuleExtract, "cannot determine the %s-states of this %s transition; annotate the call with //fsm:%s <aliases>", which, m.Name, which)
	return nil, ""
}

// inferGuard derives the possible states of arg from the early-return
// guards preceding the call at the top level of fn: passing
// `if arg != K { return }` forces arg == K, and each
// `if arg == K1 || arg == K2 { return }` excludes K1, K2.
func (x *extractor) inferGuard(pkg *analysis.Package, fn *ast.FuncDecl, call *ast.CallExpr, arg ast.Expr, m *Machine) []string {
	want := exprString(arg)
	if want == "" {
		return nil
	}
	allowed := map[string]bool{}
	for _, sd := range m.States {
		allowed[sd.Alias] = true
	}
	constrained := false
	for _, st := range fn.Body.List {
		if st.Pos() >= call.Pos() {
			break
		}
		ifs, ok := st.(*ast.IfStmt)
		if !ok || ifs.Else != nil || !endsInReturn(ifs.Body) {
			continue
		}
		for _, d := range disjuncts(ifs.Cond) {
			be, ok := d.(*ast.BinaryExpr)
			if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
				continue
			}
			var constExpr ast.Expr
			if exprString(be.X) == want {
				constExpr = be.Y
			} else if exprString(be.Y) == want {
				constExpr = be.X
			} else {
				continue
			}
			sr := x.stateOf(pkg, constExpr)
			if sr == nil || sr.machine != m.Name {
				continue
			}
			constrained = true
			if be.Op == token.NEQ {
				// Surviving the guard means arg == const.
				for a := range allowed {
					if a != sr.decl.Alias {
						delete(allowed, a)
					}
				}
			} else {
				// Surviving the guard means arg != const.
				delete(allowed, sr.decl.Alias)
			}
		}
	}
	if !constrained || len(allowed) == 0 {
		return nil
	}
	var out []string
	for _, sd := range m.States {
		if allowed[sd.Alias] {
			out = append(out, sd.Alias)
		}
	}
	return out
}

// exprString renders simple ident/selector chains for structural equality.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if x := exprString(v.X); x != "" {
			return x + "." + v.Sel.Name
		}
	case *ast.ParenExpr:
		return exprString(v.X)
	}
	return ""
}

// stateByAlias finds a machine state by its model letter.
func (m *Machine) stateByAlias(alias string) *StateDecl {
	for _, sd := range m.States {
		if sd.Alias == alias {
			return sd
		}
	}
	return nil
}

// aliasIndex orders aliases by state declaration order (unknowns last).
func (m *Machine) aliasIndex(alias string) int {
	for i, sd := range m.States {
		if sd.Alias == alias {
			return i
		}
	}
	return len(m.States)
}

// finalizeEdges deduplicates and orders each machine's edge set by role,
// then by state declaration order.
func (x *extractor) finalizeEdges() {
	for name, raw := range x.rawEdges {
		m := x.machines[name]
		sort.Slice(raw, func(i, j int) bool {
			a, b := raw[i], raw[j]
			if a.Role != b.Role {
				return a.Role < b.Role
			}
			if a.From != b.From {
				return m.aliasIndex(a.From) < m.aliasIndex(b.From)
			}
			if a.To != b.To {
				return m.aliasIndex(a.To) < m.aliasIndex(b.To)
			}
			if a.Pos.Filename != b.Pos.Filename {
				return a.Pos.Filename < b.Pos.Filename
			}
			return a.Pos.Line < b.Pos.Line
		})
		seen := map[[3]string]bool{}
		for _, e := range raw {
			if seen[e.key()] {
				continue
			}
			seen[e.key()] = true
			m.Edges = append(m.Edges, e)
		}
	}
}
