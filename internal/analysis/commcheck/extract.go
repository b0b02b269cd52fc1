package commcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// opDecl is one //comm:op-annotated function.
type opDecl struct {
	pkg   *analysis.Package
	fn    *ast.FuncDecl
	class string
	name  string
	pos   token.Position
}

// matrixDecl is one //comm:matrix-annotated compatibility matrix.
type matrixDecl struct {
	pkg  *analysis.Package
	file string
	lit  *ast.CompositeLit
	pos  token.Position
}

type extractor struct {
	*analysis.Scope
	pkgs []*analysis.Package

	// classVal maps each //comm:mode-bound class to its mode constant's
	// value; classConst to the constant's name; modeClass inverts classVal.
	classVal   map[string]int64
	classConst map[string]string
	modeClass  map[int64]string

	ops      []opDecl
	matrices []matrixDecl
}

func newExtractor(pkgs []*analysis.Package) *extractor {
	return &extractor{
		Scope:      analysis.NewScope(pkgs, "comm", RuleExtract, verbs),
		pkgs:       pkgs,
		classVal:   map[string]int64{},
		classConst: map[string]string{},
		modeClass:  map[int64]string{},
	}
}

func (x *extractor) extract() *Report {
	for _, pkg := range x.pkgs {
		for _, f := range pkg.Files {
			x.extractFile(pkg, f)
		}
	}
	x.ReportUnbound()
	rep := &Report{
		Classes: map[string]string{},
		Ops:     map[string]string{},
	}
	for c, name := range x.classConst {
		rep.Classes[c] = name
	}
	// Validate op classes now that every //comm:mode is collected.
	classes := x.classes()
	for _, op := range x.ops {
		if _, ok := x.classVal[op.class]; !ok {
			x.ReportAt(op.pos, RuleExtract,
				"//comm:op names unknown class %q (no //comm:mode binds it; known: %s)",
				op.class, strings.Join(classes, ", "))
			continue
		}
		rep.Ops[op.name] = op.class
	}
	// Derive the reference matrix from each annotated spec and compare.
	var derived *DerivedMatrix
	for _, md := range x.matrices {
		rep.Matrices = append(rep.Matrices, md.file)
		d := x.checkMatrix(md, classes, rep)
		if d != nil {
			rep.Proofs += d.Proofs
			derived = d
		}
	}
	// Check every Acquire site of every annotated op against its class.
	for _, op := range x.ops {
		if _, ok := x.classVal[op.class]; !ok {
			continue // already reported above
		}
		x.checkOp(op, derived, classes, rep)
	}
	return rep
}

// extractFile attaches the directives of one file to their declarations:
// op in a function doc, mode trailing a constant, matrix on a var. A
// directive anywhere else stays unbound and is reported as unattached.
func (x *extractor) extractFile(pkg *analysis.Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			for _, dir := range x.Directives(d.Doc) {
				if dir.Verb == "op" {
					x.Bind(dir)
					x.ops = append(x.ops, opDecl{
						pkg: pkg, fn: d, class: dir.Args[0], name: analysis.FuncDisplayName(d),
						pos: pkg.Fset.Position(d.Pos()),
					})
				}
			}
		case *ast.GenDecl:
			for i, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				groups := []*ast.CommentGroup{vs.Doc, vs.Comment}
				if i == 0 && len(d.Specs) == 1 {
					groups = append(groups, d.Doc) // the unparenthesized var form
				}
				for _, dir := range x.Directives(groups...) {
					x.attachSpec(pkg, d, vs, dir)
				}
			}
		}
	}
}

// attachSpec handles directives attached to one const/var spec.
func (x *extractor) attachSpec(pkg *analysis.Package, d *ast.GenDecl, vs *ast.ValueSpec, dir analysis.Directive) {
	switch {
	case dir.Verb == "mode" && d.Tok == token.CONST:
		x.Bind(dir)
		if len(vs.Names) != 1 {
			x.ReportAt(dir.Pos, RuleExtract, "//comm:mode must trail a single-constant declaration")
			return
		}
		obj, ok := pkg.Info.Defs[vs.Names[0]].(*types.Const)
		if !ok {
			x.ReportAt(dir.Pos, RuleExtract, "//comm:mode on %s: not a constant", vs.Names[0].Name)
			return
		}
		val, ok := constant.Int64Val(obj.Val())
		if !ok {
			x.ReportAt(dir.Pos, RuleExtract, "//comm:mode on %s: not an integer mode", vs.Names[0].Name)
			return
		}
		class := dir.Args[0]
		if prev, dup := x.classVal[class]; dup && prev != val {
			x.ReportAt(dir.Pos, RuleExtract,
				"class %s bound to conflicting modes (%s=%d vs %s=%d)",
				class, x.classConst[class], prev, vs.Names[0].Name, val)
			return
		}
		if prevClass, dup := x.modeClass[val]; dup && prevClass != class {
			x.ReportAt(dir.Pos, RuleExtract,
				"mode %s already bound to class %s", vs.Names[0].Name, prevClass)
			return
		}
		x.classVal[class] = val
		x.classConst[class] = vs.Names[0].Name
		x.modeClass[val] = class
	case dir.Verb == "matrix" && d.Tok == token.VAR:
		x.Bind(dir)
		if len(vs.Values) != 1 {
			x.ReportAt(dir.Pos, RuleExtract, "//comm:matrix must annotate a single matrix literal")
			return
		}
		lit, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			x.ReportAt(dir.Pos, RuleExtract, "//comm:matrix value must be a map composite literal")
			return
		}
		x.matrices = append(x.matrices, matrixDecl{
			pkg: pkg, file: dir.Args[0], lit: lit,
			pos: pkg.Fset.Position(vs.Pos()),
		})
	}
}

// classes returns the annotated class names, sorted.
func (x *extractor) classes() []string {
	out := make([]string, 0, len(x.classVal))
	for c := range x.classVal {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// checkMatrix derives the reference matrix from the annotated spec file
// and compares the Go literal against it, ordered entry by ordered entry.
func (x *extractor) checkMatrix(md matrixDecl, classes []string, rep *Report) *DerivedMatrix {
	src, err := os.ReadFile(filepath.Join(md.pkg.Dir, filepath.FromSlash(md.file)))
	if err != nil {
		x.ReportAt(md.pos, RuleExtract, "//comm:matrix spec unreadable: %v", err)
		return nil
	}
	derived, err := Derive(string(src), classes)
	if err != nil {
		x.ReportAt(md.pos, RuleExtract, "//comm:matrix spec %s: %v", md.file, err)
		return nil
	}
	gm, ok := x.goMatrix(md)
	if !ok {
		return derived
	}
	for _, a := range classes {
		for _, b := range classes {
			rep.Entries++
			g := gm[x.classVal[a]][x.classVal[b]]
			e := derived.Compatible[a][b]
			switch {
			case g && !e:
				x.ReportAt(md.pos, RuleMatrix,
					"matrix marks (%s, %s) compatible but %s has no discharged Safe theorem for the pair",
					a, b, md.file)
			case !g && e:
				x.ReportAt(md.pos, RuleMatrix,
					"matrix marks (%s, %s) conflicting but %s discharges Safe%s%s",
					a, b, md.file, a, b)
			}
		}
	}
	return derived
}

// goMatrix evaluates the matrix composite literal into mode-value form.
func (x *extractor) goMatrix(md matrixDecl) (map[int64]map[int64]bool, bool) {
	out := map[int64]map[int64]bool{}
	for _, elt := range md.lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			x.ReportAt(md.pos, RuleExtract, "matrix literal entry is not key: value")
			return nil, false
		}
		key, ok := x.constInt(md.pkg, kv.Key)
		if !ok {
			x.ReportAt(md.pkg.Fset.Position(kv.Key.Pos()), RuleExtract, "matrix key is not a constant mode")
			return nil, false
		}
		if _, bound := x.modeClass[key]; !bound {
			x.ReportAt(md.pkg.Fset.Position(kv.Key.Pos()), RuleExtract, "matrix key has no //comm:mode binding")
			return nil, false
		}
		row, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			x.ReportAt(md.pkg.Fset.Position(kv.Value.Pos()), RuleExtract, "matrix row is not a map literal")
			return nil, false
		}
		if out[key] == nil {
			out[key] = map[int64]bool{}
		}
		for _, relt := range row.Elts {
			rkv, ok := relt.(*ast.KeyValueExpr)
			if !ok {
				x.ReportAt(md.pkg.Fset.Position(relt.Pos()), RuleExtract, "matrix row entry is not key: value")
				return nil, false
			}
			rkey, ok := x.constInt(md.pkg, rkv.Key)
			if !ok {
				x.ReportAt(md.pkg.Fset.Position(rkv.Key.Pos()), RuleExtract, "matrix row key is not a constant mode")
				return nil, false
			}
			if _, bound := x.modeClass[rkey]; !bound {
				x.ReportAt(md.pkg.Fset.Position(rkv.Key.Pos()), RuleExtract, "matrix row key has no //comm:mode binding")
				return nil, false
			}
			tv, defined := md.pkg.Info.Types[rkv.Value]
			if !defined || tv.Value == nil || tv.Value.Kind() != constant.Bool {
				x.ReportAt(md.pkg.Fset.Position(rkv.Value.Pos()), RuleExtract, "matrix entry is not a boolean constant")
				return nil, false
			}
			out[key][rkey] = constant.BoolVal(tv.Value)
		}
	}
	return out, true
}

// constInt resolves an expression to its integer constant value.
func (x *extractor) constInt(pkg *analysis.Package, e ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// checkOp walks one annotated op function and checks every
// locking.Manager.Acquire call's mode against the op's class.
func (x *extractor) checkOp(op opDecl, derived *DerivedMatrix, classes []string, rep *Report) {
	if op.fn.Body == nil {
		return
	}
	required := x.classVal[op.class]
	ast.Inspect(op.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !x.isAcquire(op.pkg, call) {
			return true
		}
		rep.AcquireSites++
		pos := op.pkg.Fset.Position(call.Pos())
		mode, isConst := x.constInt(op.pkg, call.Args[2])
		if !isConst {
			x.ReportAt(pos, RuleExtract,
				"non-constant lock mode in %s-class op %s; commcheck cannot verify it", op.class, op.name)
			return true
		}
		if mode == required {
			return true
		}
		modeClass, bound := x.modeClass[mode]
		if !bound {
			x.ReportAt(pos, RuleExtract,
				"%s acquires a mode with no //comm:mode binding", op.name)
			return true
		}
		if derived == nil {
			x.ReportAt(pos, RuleExtract,
				"%s acquires %s for class %s but no //comm:matrix spec is available to judge it",
				op.name, x.classConst[modeClass], op.class)
			return true
		}
		if derived.protects(modeClass, op.class, classes) {
			x.ReportAt(pos, RuleOverlock,
				"%s-class op %s acquires %s; the discharged matrix licenses %s (overlocking forfeits the proved commutativity)",
				op.class, op.name, x.classConst[modeClass], x.classConst[op.class])
			return true
		}
		witness := ""
		for _, d := range classes {
			if derived.Compatible[modeClass][d] && !derived.Compatible[op.class][d] {
				witness = d
				break
			}
		}
		x.ReportAt(pos, RuleUnderlock,
			"%s-class op %s acquires %s, which admits concurrent %s-class holders that do not commute with %s",
			op.class, op.name, x.classConst[modeClass], witness, op.class)
		return true
	})
}

// isAcquire recognizes calls to locking.Manager.Acquire (by type, so
// embedding and fixture aliases resolve correctly).
func (x *extractor) isAcquire(pkg *analysis.Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Acquire" || len(call.Args) != 4 {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/locking")
}
