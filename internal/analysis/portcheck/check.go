package portcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"speccat/internal/analysis"
)

// checkBoundary enforces rt-boundary on one engine package: no simulator
// imports (suppressible per import line for harness files that own the
// simulator wiring), and no type assertion from an rt interface back to
// a concrete simulator type (stay on the rt interface instead).
func (x *extractor) checkBoundary(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if simulatorPaths[path] {
				x.Reportf(pkg, imp.Pos(), RuleBoundary,
					"engine package imports the simulator package %s; engines speak rt.Transport / rt.Timer only", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var target ast.Expr
			switch v := n.(type) {
			case *ast.TypeAssertExpr:
				target = v.Type // nil for x.(type) in a type switch
			case *ast.CaseClause:
				for _, e := range v.List {
					if x.simulatorType(pkg, e) {
						x.Reportf(pkg, e.Pos(), RuleBoundary,
							"type switch reaches around the rt boundary to the concrete simulator type %s; stay on the rt interface instead", typeDisplay(pkg, e))
					}
				}
				return true
			default:
				return true
			}
			if target != nil && x.simulatorType(pkg, target) {
				x.Reportf(pkg, target.Pos(), RuleBoundary,
					"type assertion reaches around the rt boundary to the concrete simulator type %s; stay on the rt interface instead", typeDisplay(pkg, target))
			}
			return true
		})
	}
}

// simulatorType reports whether expr names a type declared in one of the
// walled-off simulator packages. Aliases re-exported through internal/rt
// (rt.Message = simnet.Message and friends) resolve to rt's named types
// and are not simulator types.
func (x *extractor) simulatorType(pkg *analysis.Package, expr ast.Expr) bool {
	t := pkg.Info.TypeOf(expr)
	named := typeNameOf(t)
	if named == nil || named.Pkg() == nil {
		return false
	}
	for path := range simulatorPaths {
		if named.Pkg().Path() == path || strings.HasSuffix(named.Pkg().Path(), strings.TrimPrefix(path, "speccat/")) {
			return true
		}
	}
	return false
}

func typeDisplay(pkg *analysis.Package, expr ast.Expr) string {
	if named := typeNameOf(pkg.Info.TypeOf(expr)); named != nil {
		return named.Pkg().Name() + "." + named.Name()
	}
	return "?"
}

// checkConfine enforces rt-confine on one reachable function: the
// receiver's mutable state (and any pointer into package-local protocol
// structs) must stay on the node's event loop. Escapes are goroutines
// spawned from handler context, closures stored into package-level
// variables, and interior pointers returned from confined methods —
// unless every touched field carries a //rt:guard annotation.
func (x *extractor) checkConfine(fi *funcInfo) {
	pkg := fi.Pkg
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			if ref := x.confinedRefIn(fi, v.Call); ref != "" {
				x.Reportf(pkg, v.Pos(), RuleConfine,
					"handler state (%s) escapes to a spawned goroutine; confined state may only be touched on the node's event loop (annotate the field //rt:guard if externally synchronized)", ref)
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				id, ok := analysis.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Uses[id]
				if obj == nil {
					obj = pkg.Info.Defs[id]
				}
				if obj == nil || obj.Parent() != pkg.Types.Scope() {
					continue
				}
				if lit, ok := analysis.Unparen(v.Rhs[i]).(*ast.FuncLit); ok {
					if ref := x.confinedRefIn(fi, lit); ref != "" {
						x.Reportf(pkg, v.Pos(), RuleConfine,
							"closure capturing handler state (%s) is stored in package-level %s; confined state must not outlive its event-loop turn", ref, obj.Name())
					}
				}
			}
		case *ast.ReturnStmt:
			if !x.confined[recvTypeName(fi)] {
				return true
			}
			for _, res := range v.Results {
				x.checkReturnedInterior(fi, res)
			}
		}
		return true
	})
}

// checkReturnedInterior flags a confined method returning an interior
// pointer to its receiver's state: &recv.f, or a bare reference-typed
// field recv.f (map, slice, pointer, chan).
func (x *extractor) checkReturnedInterior(fi *funcInfo, res ast.Expr) {
	pkg := fi.Pkg
	e := analysis.Unparen(res)
	addr := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = analysis.Unparen(u.X)
		addr = true
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	base, ok := analysis.Unparen(sel.X).(*ast.Ident)
	if !ok || !x.isReceiverIdent(fi, base) {
		return
	}
	fobj := pkg.Info.Uses[sel.Sel]
	if fobj == nil {
		return
	}
	if _, isVar := fobj.(*types.Var); !isVar {
		return
	}
	if x.guards[fobj] != "" {
		return
	}
	if !addr {
		switch fobj.Type().Underlying().(type) {
		case *types.Map, *types.Slice, *types.Pointer, *types.Chan:
		default:
			return
		}
	}
	x.Reportf(pkg, res.Pos(), RuleConfine,
		"confined method returns an interior pointer to handler state (%s.%s); return a copy, or annotate the field //rt:guard", base.Name, sel.Sel.Name)
}

// isReceiverIdent reports whether id is the function's receiver variable.
func (x *extractor) isReceiverIdent(fi *funcInfo, id *ast.Ident) bool {
	if fi.Decl.Recv == nil || len(fi.Decl.Recv.List) == 0 || len(fi.Decl.Recv.List[0].Names) == 0 {
		return false
	}
	robj := fi.Pkg.Info.Defs[fi.Decl.Recv.List[0].Names[0]]
	obj := fi.Pkg.Info.Uses[id]
	return robj != nil && obj == robj
}

// confinedRefIn scans a subtree for references that alias confined
// state: the receiver itself, or any variable whose type points into a
// struct declared in this engine package (the role struct or its
// satellite per-transaction records). Selectors onto //rt:guard-annotated
// fields are exempt, including everything reached through them.
func (x *extractor) confinedRefIn(fi *funcInfo, root ast.Node) string {
	pkg := fi.Pkg
	found := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fobj := pkg.Info.Uses[sel.Sel]; fobj != nil && x.guards[fobj] != "" {
				// A guarded field is safe off-loop by annotation; do not
				// descend into its base.
				return false
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if x.isReceiverIdent(fi, id) {
			found = id.Name
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		if p, ok := v.Type().(*types.Pointer); ok {
			if named := typeNameOf(p.Elem()); named != nil && named.Pkg() == pkg.Types {
				found = id.Name
				return false
			}
		}
		return true
	}
	ast.Inspect(root, walk)
	return found
}
