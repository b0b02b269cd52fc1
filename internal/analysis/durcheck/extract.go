package durcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// extractor accumulates the durability facts of one load.
type extractor struct {
	*analysis.Scope
	pkgs []*analysis.Package

	// kinds is the //dur:requires wire-kind table; only in a package
	// declaring a requirement is an unresolvable send kind worth a finding.
	kinds *analysis.KindTable
	// volatiles are //dur:volatile-annotated fields and vars.
	volatiles map[types.Object]string
	// funcs indexes every function declaration of the load; the roots are
	// the //fsm:handler and //dur:handler functions.
	funcs *analysis.FuncIndex[facts]

	rep *Report
}

type funcInfo = analysis.Func[facts]

// facts is the per-function classification the flow analysis consumes.
type facts struct {
	// writes holds the //dur:writes classes; annotated distinguishes an
	// empty list from "no annotation".
	writes    []string
	annotated bool
	// appliesParam is the //dur:applies map parameter, if any.
	appliesParam types.Object
	appliesName  string

	// directDurable: the body itself mutates stable storage (stable.Store
	// mutator, wal.Log mutator, or wal.Resolve).
	directDurable bool
	// reachesDurable: directDurable, or calls a callee that is annotated
	// or directDurable (the "one level of call summaries" rule).
	reachesDurable bool
	// sendWrapKindIdx is the flattened parameter index this function
	// forwards as a message kind to a send primitive; -1 otherwise.
	sendWrapKindIdx int
	// mutatesVolatile: the body index-assigns or deletes through a
	// //dur:volatile object or this function's //dur:applies parameter.
	mutatesVolatile bool
}

func newExtractor(pkgs []*analysis.Package) *extractor {
	return &extractor{
		Scope:     analysis.NewScope(pkgs, "dur", RuleExtract, verbs),
		pkgs:      pkgs,
		volatiles: map[types.Object]string{},
		rep: &Report{
			Requires:  map[string]string{},
			KindValue: map[string]string{},
			Writes:    map[string][]string{},
		},
	}
}

// extract runs the full pipeline: binding, per-function fact computation,
// reachability, and the flow analysis of every function in scope.
func (x *extractor) extract() *Report {
	x.kinds = analysis.RequiredKinds(x.pkgs, func(d analysis.Directive, problem string) {
		x.Bind(d)
		if problem != "" {
			x.ReportAt(d.Pos, RuleExtract, "%s", problem)
		}
	})
	for obj, class := range x.kinds.Class {
		x.rep.Requires[obj.Name()] = class
		x.rep.KindValue[obj.Name()] = x.kinds.Value[obj]
	}
	for _, pkg := range x.pkgs {
		for _, f := range pkg.Files {
			x.scanVolatiles(pkg, f)
		}
	}
	x.funcs = analysis.IndexFuncs[facts](x.pkgs, "fsm:handler", "dur:handler")
	for _, fi := range x.funcs.Sorted() {
		x.bindFuncDirectives(fi)
	}
	x.computeFacts()
	x.validateWrites()
	// The flow analysis walks everything reachable from an analysis root,
	// plus every function that mutates volatile state (the write-ahead
	// rule holds even in packages with no handlers, e.g. internal/wal).
	analyzed := x.funcs.Reachable(func(fi *funcInfo) bool {
		return fi.Facts.mutatesVolatile || fi.Facts.appliesParam != nil
	})
	for _, fi := range analyzed {
		x.flow(fi)
	}
	x.rep.Analyzed = len(analyzed)
	x.ReportUnbound()
	x.rep.Roots = x.funcs.RootNames()
	sort.Strings(x.rep.Volatiles)
	return x.rep
}

// scanVolatiles binds //dur:volatile directives trailing struct fields and
// package-level var declarations.
func (x *extractor) scanVolatiles(pkg *analysis.Package, f *ast.File) {
	bind := func(cg *ast.CommentGroup, names []*ast.Ident, prefix string) {
		for _, d := range x.Directives(cg) {
			if d.Verb != "volatile" {
				continue
			}
			x.Bind(d)
			for _, name := range names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					x.volatiles[obj] = prefix + name.Name
					x.rep.Volatiles = append(x.rep.Volatiles, prefix+name.Name)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch v := spec.(type) {
			case *ast.ValueSpec:
				if gd.Tok == token.VAR {
					bind(v.Comment, v.Names, "")
				}
			case *ast.TypeSpec:
				if st, ok := v.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						bind(field.Comment, field.Names, v.Name.Name+".")
					}
				}
			}
		}
	}
}

// bindFuncDirectives binds the doc-comment directives //dur:handler,
// //dur:writes and //dur:applies of one function.
func (x *extractor) bindFuncDirectives(fi *funcInfo) {
	for _, d := range x.Directives(fi.Decl.Doc) {
		switch d.Verb {
		case "handler":
			x.Bind(d)
		case "writes":
			x.Bind(d)
			fi.Facts.annotated = true
			fi.Facts.writes = append(fi.Facts.writes, d.Args...)
			x.rep.Writes[fi.Name] = append(x.rep.Writes[fi.Name], d.Args...)
		case "applies":
			x.Bind(d)
			for po := range fi.Params {
				if po.Name() == d.Args[0] {
					fi.Facts.appliesParam = po
					fi.Facts.appliesName = d.Args[0]
				}
			}
			if fi.Facts.appliesParam == nil {
				x.ReportAt(d.Pos, RuleExtract, "//dur:applies names unknown parameter %q of %s", d.Args[0], fi.Name)
			}
		}
	}
}

// computeFacts fills the per-function classification fields that depend on
// the whole load: direct durable writes, send wrappers, volatile mutation.
func (x *extractor) computeFacts() {
	for _, fi := range x.funcs.Sorted() {
		x.computeFuncFacts(fi)
	}
	// Second pass: one level of call summaries.
	for _, fi := range x.funcs.Sorted() {
		fi.Facts.reachesDurable = fi.Facts.directDurable
		fi.EachCall(func(call *ast.CallExpr) {
			if callee := x.funcs.Static(fi.Pkg, call); callee != nil && (callee.Facts.annotated || callee.Facts.directDurable) {
				fi.Facts.reachesDurable = true
			}
		})
	}
}

func (x *extractor) computeFuncFacts(fi *funcInfo) {
	fi.Facts.sendWrapKindIdx = fi.SendWrapperParam()
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			obj := analysis.ObjOf(fi.Pkg, v.Fun)
			if isStableMutator(obj) || isWalMutator(obj) {
				fi.Facts.directDurable = true
			}
			if isDeleteBuiltin(fi.Pkg, v.Fun) && len(v.Args) > 0 && x.volatileTarget(fi, v.Args[0]) != "" {
				fi.Facts.mutatesVolatile = true
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if ie, ok := lhs.(*ast.IndexExpr); ok && x.volatileTarget(fi, ie.X) != "" {
					fi.Facts.mutatesVolatile = true
				}
			}
		}
		return true
	})
}

// volatileTarget names the //dur:volatile object (or //dur:applies
// parameter) an expression resolves to, or "" when it is none.
func (x *extractor) volatileTarget(fi *funcInfo, e ast.Expr) string {
	obj := analysis.ObjOf(fi.Pkg, e)
	if id, ok := analysis.Unparen(e).(*ast.Ident); ok && obj == nil {
		obj = fi.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return ""
	}
	if name, ok := x.volatiles[obj]; ok {
		return name
	}
	if obj == fi.Facts.appliesParam {
		return "parameter " + fi.Facts.appliesName
	}
	return ""
}

// validateWrites reports stale //dur:writes annotations: an asserted
// durable-write summary on a function that never reaches stable storage
// (directly or via one level of callees) is a lie the analysis would
// silently trust.
func (x *extractor) validateWrites() {
	for _, fi := range x.funcs.Sorted() {
		if fi.Facts.annotated && !fi.Facts.reachesDurable {
			x.Reportf(fi.Pkg, fi.Decl.Name.Pos(), RuleSummary,
				"function %s declares //dur:writes %s but never reaches stable storage",
				fi.Name, strings.Join(fi.Facts.writes, " "))
		}
	}
}

// --- object classification helpers -----------------------------------------

// isStableMutator recognizes the stable.Store mutation API.
func isStableMutator(obj types.Object) bool {
	return analysis.IsMethodOn(obj, "internal/stable", "Store", "Put", "Delete", "Append", "TruncateLog")
}

// isWalMutator recognizes wal.Log mutators and the package-level
// wal.Resolve — durable writes of class "log".
func isWalMutator(obj types.Object) bool {
	if analysis.IsMethodOn(obj, "internal/wal", "Log", "Begin", "LoggedUpdate", "LoggedApply", "Commit", "Abort") {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Resolve" || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && strings.HasSuffix(fn.Pkg().Path(), "internal/wal")
}

// isDeleteBuiltin reports whether fun names the delete builtin.
func isDeleteBuiltin(pkg *analysis.Package, fun ast.Expr) bool {
	id, ok := analysis.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
