package speclang

import "fmt"

// The AST mirrors the statement forms that appear in the thesis listings:
//
//	BBB = spec ... endspec
//	T   = translate(BBB) by {a ++> b, ...}
//	M   = morphism A -> B {x ++> y, ...}
//	D   = diagram {a ++> A, b ++> B, i: a->b ++> morphism A -> B {...}}
//	C   = colimit D
//	p1  = prove Thm in Spec using Ax1 Ax2 ...
//	foo = print C

// File is a parsed source file.
type File struct {
	Stmts []Stmt
}

// BindName is the name the environment binds statement i under: its own,
// or _anon<i> for a bare expression. Eval and provesched.FromFile both
// read it, so a discharged proof replaces exactly the value its prove
// statement bound.
func (f *File) BindName(i int) string {
	if name := f.Stmts[i].Name; name != "" {
		return name
	}
	return fmt.Sprintf("_anon%d", i)
}

// Stmt is one `name = expr` binding (name may be empty for bare exprs).
type Stmt struct {
	Name string
	Expr Expr
	Line int
}

// Expr is a parsed right-hand side.
type Expr interface{ exprNode() }

// SpecExpr is a spec ... endspec block.
type SpecExpr struct {
	Imports  []string
	Sorts    []SortDecl
	Ops      []OpDecl
	Axioms   []PropDecl
	Theorems []PropDecl
}

// SortDecl declares a sort, optionally with a definition.
type SortDecl struct {
	Name string
	Def  string
	Line int
}

// OpDecl declares an operation: name : args -> result. A declaration
// without "->" is a constant of the given sort.
type OpDecl struct {
	Name   string
	Args   []string
	Result string
	Line   int
}

// PropDecl is an axiom or theorem with its formula AST and optional
// `using` hints (theorems get them from prove statements).
type PropDecl struct {
	Name    string
	Formula FormulaNode
	Line    int
}

// TranslateExpr is translate(Source) by {renames}.
type TranslateExpr struct {
	Source  string
	Renames []RenamePair
}

// RenamePair is one `from ++> to` mapping.
type RenamePair struct {
	From string
	To   string
}

// MorphismExpr is morphism Source -> Target {renames}.
type MorphismExpr struct {
	Source  string
	Target  string
	Renames []RenamePair
}

// MorphismRef references a previously bound morphism by name.
type MorphismRef struct {
	Name string
}

// DiagramExpr is diagram { nodes and arcs }.
type DiagramExpr struct {
	Nodes []DiagramNode
	Arcs  []DiagramArc
}

// DiagramNode labels a node with a spec name: `a ++> SPECNAME`.
type DiagramNode struct {
	Label string
	Spec  string
	Line  int
}

// DiagramArc is `i: a->b ++> <morphism>`.
type DiagramArc struct {
	Label string
	From  string
	To    string
	M     Expr // MorphismExpr or MorphismRef
	Line  int
}

// ColimitExpr is colimit D.
type ColimitExpr struct {
	Diagram string
}

// ProveExpr is prove Thm in Spec using Ax...
type ProveExpr struct {
	Theorem string
	In      string
	Using   []string
}

// PrintExpr is print Name.
type PrintExpr struct {
	Name string
}

func (*SpecExpr) exprNode()      {}
func (*TranslateExpr) exprNode() {}
func (*MorphismExpr) exprNode()  {}
func (*MorphismRef) exprNode()   {}
func (*DiagramExpr) exprNode()   {}
func (*ColimitExpr) exprNode()   {}
func (*ProveExpr) exprNode()     {}
func (*PrintExpr) exprNode()     {}

// FormulaNode is the surface-syntax formula AST, elaborated into
// logic.Formula once the enclosing spec's signature is known.
type FormulaNode interface{ formulaNode() }

// FQuant is fa(binders) body or ex(binders) body.
type FQuant struct {
	Universal bool
	Binders   []Binder
	Body      FormulaNode
}

// Binder is one bound variable with an optional sort.
type Binder struct {
	Name string
	Sort string
}

// FBinary is a binary connective: "&", "|", "=>", "<=>".
type FBinary struct {
	Op   string
	L, R FormulaNode
}

// FNot is negation.
type FNot struct{ Sub FormulaNode }

// FIfThenElse is the listings' `if c then p else q` sugar.
type FIfThenElse struct {
	Cond FormulaNode
	Then FormulaNode
	Else FormulaNode // nil means `if-then` only: c => p
}

// FAtom is a predicate application (possibly 0-ary).
type FAtom struct {
	Name string
	Args []TermNode
}

// FCompare is an infix comparison atom: "=", "<", "<=", ">", ">=".
type FCompare struct {
	Op   string
	L, R TermNode
}

func (*FQuant) formulaNode()      {}
func (*FBinary) formulaNode()     {}
func (*FNot) formulaNode()        {}
func (*FIfThenElse) formulaNode() {}
func (*FAtom) formulaNode()       {}
func (*FCompare) formulaNode()    {}

// TermNode is the surface-syntax term AST.
type TermNode interface{ termNode() }

// TName is an identifier: variable, constant, or 0-ary op.
type TName struct{ Name string }

// TApply is name(args).
type TApply struct {
	Name string
	Args []TermNode
}

// TNumber is a numeric literal.
type TNumber struct{ Text string }

// TArith is infix arithmetic: "+" or "-".
type TArith struct {
	Op   string
	L, R TermNode
}

func (*TName) termNode()   {}
func (*TApply) termNode()  {}
func (*TNumber) termNode() {}
func (*TArith) termNode()  {}
