package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// This file holds what the two send-ordering layers share about wire
// kinds: durcheck orders requiring sends against stable storage,
// portcheck against the in-memory transition, and both must agree on
// which constants require, which calls send, and which constants a kind
// expression may hold.

// EachConstSpec visits every constant spec that has a trailing comment —
// where the const-bound directives of every layer live.
func EachConstSpec(pkgs []*Package, visit func(pkg *Package, spec *ast.ValueSpec)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, s := range gd.Specs {
					if spec, ok := s.(*ast.ValueSpec); ok && spec.Comment != nil {
						visit(pkg, spec)
					}
				}
			}
		}
	}
}

// KindTable is the //dur:requires wire-kind table: the string constants
// whose sends advertise a durable protocol step.
type KindTable struct {
	// Class maps a kind constant to the durable-write class its sends
	// demand; Value carries its wire value.
	Class map[types.Object]string
	Value map[types.Object]string
	// Declaring marks the packages declaring at least one requiring kind.
	Declaring map[*types.Package]bool
}

// RequiredKinds extracts the table. seen is told of every one-argument
// //dur:requires trailing a constant spec, with the reason it was
// rejected ("" when it was accepted).
func RequiredKinds(pkgs []*Package, seen func(d Directive, problem string)) *KindTable {
	t := &KindTable{
		Class: map[types.Object]string{}, Value: map[types.Object]string{},
		Declaring: map[*types.Package]bool{},
	}
	EachConstSpec(pkgs, func(pkg *Package, spec *ast.ValueSpec) {
		for _, d := range CommentDirectives(pkg, spec.Comment) {
			if d.NS != "dur" || d.Verb != "requires" || len(d.Args) != 1 {
				continue
			}
			problem := ""
			if len(spec.Names) != 1 {
				problem = "//dur:requires must annotate a single constant"
			} else if cnst, ok := pkg.Info.Defs[spec.Names[0]].(*types.Const); !ok || cnst.Val().Kind() != constant.String {
				problem = "//dur:requires must annotate a string constant"
			} else {
				t.Class[cnst] = d.Args[0]
				t.Value[cnst] = constant.StringVal(cnst.Val())
				t.Declaring[pkg.Types] = true
			}
			seen(d, problem)
		}
	})
	return t
}

// SendKindArg reports whether obj is an externally visible send primitive
// and, if so, which argument carries the message kind. Both faces of the
// runtime boundary count: the simulator's concrete simnet.Network
// (harness code) and the rt.Transport interface the ported engines call
// through.
func SendKindArg(obj types.Object) (int, bool) {
	if IsMethodOn(obj, "internal/simnet", "Network", "Send") ||
		IsMethodOn(obj, "internal/rt", "Transport", "Send") {
		return 2, true
	}
	return 0, false
}

// SendWrapperParam returns the flattened index of the parameter the
// function forwards as the message kind of a send primitive, -1 when it
// is no send wrapper.
func (fi *Func[F]) SendWrapperParam() int {
	out := -1
	fi.EachCall(func(call *ast.CallExpr) {
		if idx, isSend := SendKindArg(ObjOf(fi.Pkg, call.Fun)); isSend && idx < len(call.Args) {
			if pidx, isParam := fi.ParamIndex(call.Args[idx]); isParam {
				out = pidx
			}
		}
	})
	return out
}

// VarKinds records every string constant assigned to a local variable
// anywhere in the function, so a send through the variable is checked
// against every constant it may hold (flow-insensitively — conservative
// for requiring kinds).
func (fi *Func[F]) VarKinds() map[types.Object][]types.Object {
	out := map[types.Object][]types.Object{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		lobj := fi.Pkg.Info.Defs[id]
		if lobj == nil {
			lobj = fi.Pkg.Info.Uses[id]
		}
		cobj, ok := ObjOf(fi.Pkg, rhs).(*types.Const)
		if lobj == nil || !ok || cobj.Val().Kind() != constant.String {
			return
		}
		out[lobj] = append(out[lobj], cobj)
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					record(v.Lhs[i], v.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) == len(v.Values) {
				for i := range v.Names {
					record(v.Names[i], v.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// KindConsts resolves a send's kind expression to the constant(s) it may
// hold: a constant directly, or every constant assigned to a local
// variable. resolved is false only when the expression is opaque; a
// parameter (the wrapper's call sites carry the actual kind) and a
// literal (it cannot carry an annotation) resolve to nothing.
func (fi *Func[F]) KindConsts(varKinds map[types.Object][]types.Object, e ast.Expr) (objs []types.Object, resolved bool) {
	switch v := Unparen(e).(type) {
	case *ast.Ident:
		obj := fi.Pkg.Info.Uses[v]
		if _, isParam := fi.Params[obj]; isParam {
			return nil, true
		}
		if _, isConst := obj.(*types.Const); isConst {
			return []types.Object{obj}, true
		}
		return varKinds[obj], len(varKinds[obj]) > 0
	case *ast.SelectorExpr:
		if obj, ok := fi.Pkg.Info.Uses[v.Sel].(*types.Const); ok {
			return []types.Object{obj}, true
		}
	case *ast.BasicLit:
		return nil, true
	}
	return nil, false
}
