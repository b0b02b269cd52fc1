package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the second third of the analysis core: the per-function
// sheet, handler-root discovery, callee resolution (static and bridged
// through interfaces) and the call-graph closures every dataflow layer
// runs over it. A layer supplies its root verbs and its own per-function
// facts F; it never walks declarations to find functions itself.

// Func is the per-function sheet.
type Func[F any] struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  types.Object
	// Name is the display name, receiver-qualified for methods.
	Name string
	// Params maps the named parameters to their flattened argument
	// positions.
	Params map[types.Object]int
	// Root marks analysis roots: the doc comment carries one of the
	// index's root verbs.
	Root bool
	// Facts are the layer's own classification of the function.
	Facts F
}

// FuncIndex indexes every function declaration (with a body) of a load.
type FuncIndex[F any] struct {
	// ByObj finds a function by its declared object.
	ByObj  map[types.Object]*Func[F]
	sorted []*Func[F]
	// impls caches interface-bridged resolution per interface method.
	impls map[types.Object][]*Func[F]
}

// IndexFuncs builds the index. rootVerbs are the "ns:verb" directives —
// of any namespace — whose presence in a function's doc comment makes it
// an analysis root ("fsm:handler", "comm:op").
func IndexFuncs[F any](pkgs []*Package, rootVerbs ...string) *FuncIndex[F] {
	ix := &FuncIndex[F]{ByObj: map[types.Object]*Func[F]{}, impls: map[types.Object][]*Func[F]{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || pkg.Info.Defs[fn.Name] == nil {
					continue
				}
				fi := &Func[F]{
					Pkg: pkg, Decl: fn, Obj: pkg.Info.Defs[fn.Name],
					Name: FuncDisplayName(fn), Params: map[types.Object]int{},
				}
				idx := 0
				for _, field := range fn.Type.Params.List {
					for _, name := range field.Names {
						if po := pkg.Info.Defs[name]; po != nil {
							fi.Params[po] = idx
						}
						idx++
					}
				}
				for _, d := range CommentDirectives(pkg, fn.Doc) {
					for _, rv := range rootVerbs {
						fi.Root = fi.Root || d.NS+":"+d.Verb == rv
					}
				}
				ix.ByObj[fi.Obj] = fi
				ix.sorted = append(ix.sorted, fi)
			}
		}
	}
	sort.Slice(ix.sorted, func(i, j int) bool {
		a := ix.sorted[i].Pkg.Fset.Position(ix.sorted[i].Decl.Pos())
		b := ix.sorted[j].Pkg.Fset.Position(ix.sorted[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return ix
}

// Sorted returns every function ordered by position, for deterministic
// output.
func (ix *FuncIndex[F]) Sorted() []*Func[F] { return ix.sorted }

// RootNames returns the display names of the analysis roots, sorted.
func (ix *FuncIndex[F]) RootNames() []string {
	var out []string
	for _, fi := range ix.sorted {
		if fi.Root {
			out = append(out, fi.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Static resolves a call to the function it names when that function is
// declared in this load, nil otherwise.
func (ix *FuncIndex[F]) Static(pkg *Package, call *ast.CallExpr) *Func[F] {
	return ix.ByObj[ObjOf(pkg, call.Fun)]
}

// Callees resolves a call to the function declarations it may reach in
// this load: the static callee when it is declared here, or — for a call
// through an interface method — every declared method of a concrete type
// implementing that interface.
func (ix *FuncIndex[F]) Callees(pkg *Package, call *ast.CallExpr) []*Func[F] {
	obj := ObjOf(pkg, call.Fun)
	if obj == nil {
		return nil
	}
	if fi := ix.ByObj[obj]; fi != nil {
		return []*Func[F]{fi}
	}
	if out, ok := ix.impls[obj]; ok {
		return out
	}
	var out []*Func[F]
	if sig := methodSig(obj); sig != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, fi := range ix.sorted {
				named := fi.RecvNamed()
				if named == nil || fi.Decl.Name.Name != obj.Name() {
					continue
				}
				if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
					out = append(out, fi)
				}
			}
		}
	}
	ix.impls[obj] = out
	return out
}

// Reachable returns, in position order, the roots, everything they reach
// through Callees, and the functions also admits (whose own calls are not
// followed). A nil also admits nothing.
func (ix *FuncIndex[F]) Reachable(also func(*Func[F]) bool) []*Func[F] {
	visited := map[*Func[F]]bool{}
	var queue []*Func[F]
	for _, fi := range ix.sorted {
		if fi.Root {
			visited[fi] = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		fi.EachCall(func(call *ast.CallExpr) {
			for _, callee := range ix.Callees(fi.Pkg, call) {
				if !visited[callee] {
					visited[callee] = true
					queue = append(queue, callee)
				}
			}
		})
	}
	var out []*Func[F]
	for _, fi := range ix.sorted {
		if visited[fi] || (also != nil && also(fi)) {
			out = append(out, fi)
		}
	}
	return out
}

// Close propagates a boolean function property backwards over the call
// graph until no function changes: set is called on every function that
// (transitively) calls one for which has holds.
func (ix *FuncIndex[F]) Close(has func(*Func[F]) bool, set func(*Func[F])) {
	for changed := true; changed; {
		changed = false
		for _, fi := range ix.sorted {
			if has(fi) {
				continue
			}
			fi.EachCall(func(call *ast.CallExpr) {
				for _, callee := range ix.Callees(fi.Pkg, call) {
					if !has(fi) && has(callee) {
						set(fi)
						changed = true
					}
				}
			})
		}
	}
}

// EachCall visits every call expression of the function body, closures
// included, in source order.
func (fi *Func[F]) EachCall(visit func(*ast.CallExpr)) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// ParamIndex reports which of the function's own parameters e names —
// the test for "this function forwards its argument".
func (fi *Func[F]) ParamIndex(e ast.Expr) (int, bool) {
	id, ok := Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	idx, isParam := fi.Params[fi.Pkg.Info.Uses[id]]
	return idx, isParam
}

// RecvNamed returns the named receiver type of a method (pointer
// receivers dereferenced), nil for plain functions.
func (fi *Func[F]) RecvNamed() *types.Named {
	sig := methodSig(fi.Obj)
	if sig == nil {
		return nil
	}
	return NamedOf(sig.Recv().Type())
}

// ShortPos renders a position of the function's package as
// "file.go:line", the form findings cite other sites in.
func (fi *Func[F]) ShortPos(p token.Pos) string {
	pos := fi.Pkg.Fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// --- object and expression helpers -----------------------------------------

// FuncDisplayName renders a declaration as "Type.Func" (or "Func").
func FuncDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// Unparen strips any enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ObjOf resolves an identifier or selector expression — the function of a
// call, a constant reference — to the object it uses.
func ObjOf(pkg *Package, e ast.Expr) types.Object {
	switch v := Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[v]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[v.Sel]
	}
	return nil
}

// methodSig returns obj's signature when obj is a method, nil otherwise.
func methodSig(obj types.Object) *types.Signature {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig
}

// NamedOf unwraps a (possibly pointer) type to its named type.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethodOn reports whether obj is one of the named methods on the named
// type of a package whose import path ends in pkgSuffix. Interface methods
// match too: an interface method's receiver type is the named interface.
func IsMethodOn(obj types.Object, pkgSuffix, typeName string, names ...string) bool {
	sig := methodSig(obj)
	if sig == nil {
		return false
	}
	named := NamedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	tn := named.Obj()
	if tn.Name() != typeName || tn.Pkg() == nil || !strings.HasSuffix(tn.Pkg().Path(), pkgSuffix) {
		return false
	}
	for _, name := range names {
		if obj.Name() == name {
			return true
		}
	}
	return false
}
