package portcheck

import (
	"go/ast"
	"go/types"
	"sort"

	"speccat/internal/analysis"
)

// simulatorPaths are the packages the rt boundary walls off: engines must
// reach time, randomness and the network only through internal/rt.
var simulatorPaths = map[string]bool{ //lint:allow noglobalstate immutable lookup table
	"speccat/internal/sim":    true,
	"speccat/internal/simnet": true,
}

// extractor accumulates the cross-package facts of one Run.
type extractor struct {
	*analysis.Scope
	pkgs []*analysis.Package
	rep  *Report

	// engines are the //rt:engine packages, in load order.
	engines []*analysis.Package
	// funcs indexes the function declarations of the engine packages; the
	// roots are the //fsm:handler and //dur:handler functions.
	funcs *analysis.FuncIndex[struct{}]
	// confined are the role types (receivers of handler roots).
	confined map[*types.TypeName]bool
	// guards maps //rt:guard-annotated field objects to their kind.
	guards map[types.Object]string
}

// funcInfo carries no per-function facts: confinement needs none.
type funcInfo = analysis.Func[struct{}]

func newExtractor(pkgs []*analysis.Package) *extractor {
	return &extractor{
		Scope:    analysis.NewScope(pkgs, "rt", RuleExtract, verbs),
		pkgs:     pkgs,
		rep:      &Report{Guards: map[string]string{}},
		confined: map[*types.TypeName]bool{},
		guards:   map[types.Object]string{},
	}
}

// extract runs every pass and assembles the report.
func (x *extractor) extract() *Report {
	for _, pkg := range x.pkgs {
		x.bindDirectives(pkg)
	}
	x.funcs = analysis.IndexFuncs[struct{}](x.engines, "fsm:handler", "dur:handler")
	for _, fi := range x.funcs.Sorted() {
		if tn := recvTypeName(fi); fi.Root && tn != nil && !x.confined[tn] {
			x.confined[tn] = true
			x.rep.Confined = append(x.rep.Confined, fi.Pkg.Types.Name()+"."+tn.Name())
		}
	}
	for _, pkg := range x.engines {
		x.checkBoundary(pkg)
	}
	// Only functions reachable from the handler roots are subject to
	// confinement checks (constructor and harness wiring
	// runs before the event loops exist).
	reachable := x.funcs.Reachable(nil)
	for _, fi := range reachable {
		x.checkConfine(fi)
	}
	x.ReportUnbound()
	x.rep.Analyzed = len(reachable)
	x.rep.Roots = x.funcs.RootNames()
	sort.Strings(x.rep.Engines)
	sort.Strings(x.rep.Confined)
	return x.rep
}

// bindDirectives binds the well-placed //rt:* directives of one package:
// //rt:engine in a package doc comment, //rt:guard on a struct field. The
// rest stay unbound and are reported as rt-extract findings.
func (x *extractor) bindDirectives(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, d := range x.Directives(f.Doc) {
			if d.Verb != "engine" {
				continue
			}
			x.Bind(d)
			if len(x.engines) == 0 || x.engines[len(x.engines)-1] != pkg {
				x.engines = append(x.engines, pkg)
				x.rep.Engines = append(x.rep.Engines, pkg.ImportPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					continue
				}
				for _, d := range x.Directives(field.Doc, field.Comment) {
					if d.Verb == "guard" {
						x.Bind(d)
						x.bindGuard(pkg, pkg.Info.Defs[field.Names[0]], d)
					}
				}
			}
			return true
		})
	}
}

func (x *extractor) bindGuard(pkg *analysis.Package, obj types.Object, d analysis.Directive) {
	if !guardKinds[d.Args[0]] {
		x.ReportAt(d.Pos, RuleExtract, "unknown //rt:guard kind %q: want mutex, channel or loop", d.Args[0])
		return
	}
	if obj != nil {
		x.guards[obj] = d.Args[0]
		x.rep.Guards[guardDisplayName(pkg, obj)] = d.Args[0]
	}
}

// guardDisplayName renders a guarded field as "Type.field" (falling back
// to the bare field name for fields of unnamed types).
func guardDisplayName(pkg *analysis.Package, obj types.Object) string {
	// The owning struct is found by scanning the package scope for a named
	// type whose struct fields include obj.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == obj {
				return tn.Name() + "." + obj.Name()
			}
		}
	}
	return obj.Name()
}

// typeNameOf unwraps a (possibly pointer) type to its type name.
func typeNameOf(t types.Type) *types.TypeName {
	if named := analysis.NamedOf(t); named != nil {
		return named.Obj()
	}
	return nil
}

// recvTypeName is the receiver's type name, nil for plain functions.
func recvTypeName(fi *funcInfo) *types.TypeName {
	if named := fi.RecvNamed(); named != nil {
		return named.Obj()
	}
	return nil
}
