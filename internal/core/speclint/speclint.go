// Package speclint statically checks well-formedness of specification
// files written in the project's Specware-like language (internal/core/
// speclang) — the domain-level counterpart of the Go design-rule
// analyzers in internal/analysis. It works purely at the name level over
// the parsed AST, so it runs before (and much faster than) elaboration
// or any prover: the same discipline the paper applies to composition,
// where cheap static checks on signatures and diagrams catch most errors
// before proof obligations are ever generated.
//
// Checks: axioms/theorems referencing undeclared symbols, arity
// mismatches, duplicate axiom/theorem names, unused sorts, ops and
// axioms (warning), morphism totality pre-checks (every source symbol
// needs an image in the target), `prove ... using` lists naming axioms
// absent from the spec, and ill-shaped or disconnected colimit
// diagrams.
//
// Individual findings can be suppressed with a
// `% lint:allow <rule> <reason>` comment, either trailing on the
// flagged line or stand-alone on the line above it; the reason is
// mandatory.
package speclint

import (
	"fmt"
	"sort"
	"strings"

	"speccat/internal/core/speclang"
)

// Severity grades a finding.
type Severity int

// Severities.
const (
	// SevWarning findings are advisory: the file still elaborates.
	SevWarning Severity = iota + 1
	// SevError findings mean elaboration or composition will misbehave.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one spec-lint finding.
type Diagnostic struct {
	File     string
	Line     int
	Rule     string
	Severity Severity
	Message  string
}

// String renders the diagnostic in file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s: %s", d.File, d.Line, d.Severity, d.Rule, d.Message)
}

// LintSource parses and lints one source file. Parse failures are
// reported as a single parse-error diagnostic rather than an error: a
// file that does not parse is the ultimate well-formedness finding.
//
// Because the lexer discards % comments, suppression is handled here
// over the raw source: a `% lint:allow <rule> <reason>` comment
// suppresses findings of that rule on its own line (trailing comment)
// or on the line below (stand-alone comment line). The reason is
// mandatory — an allow that cannot say why is itself a finding.
func LintSource(file, src string) []Diagnostic {
	f, err := speclang.Parse(src)
	if err != nil {
		return []Diagnostic{{
			File:     file,
			Line:     1,
			Rule:     "parse-error",
			Severity: SevError,
			Message:  err.Error(),
		}}
	}
	return applyAllows(file, src, Lint(file, f))
}

// applyAllows filters diags through the file's `% lint:allow` comments
// and appends findings for malformed allows.
func applyAllows(file, src string, diags []Diagnostic) []Diagnostic {
	allowed := map[int]map[string]bool{} // line -> rules suppressed there
	var extra []Diagnostic
	for i, ln := range strings.Split(src, "\n") {
		pos := strings.Index(ln, "%")
		if pos < 0 {
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(ln[pos+1:]), "lint:allow")
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		lineNo := i + 1
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			extra = append(extra, Diagnostic{
				File:     file,
				Line:     lineNo,
				Rule:     "malformed-allow",
				Severity: SevWarning,
				Message:  "% lint:allow needs a rule name and a reason",
			})
			continue
		}
		target := lineNo
		if strings.TrimSpace(ln[:pos]) == "" {
			target = lineNo + 1 // a stand-alone comment covers the next line
		}
		if allowed[target] == nil {
			allowed[target] = map[string]bool{}
		}
		allowed[target][fields[0]] = true
	}
	out := diags[:0]
	for _, d := range diags {
		if !allowed[d.Line][d.Rule] {
			out = append(out, d)
		}
	}
	out = append(out, extra...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// Lint checks a parsed file.
func Lint(file string, f *speclang.File) []Diagnostic {
	l := &linter{file: file, env: map[string]*binding{}, used: map[string]bool{}}
	for _, stmt := range f.Stmts {
		l.stmt(stmt)
	}
	l.reportUnused()
	sort.SliceStable(l.diags, func(i, j int) bool { return l.diags[i].Line < l.diags[j].Line })
	return l.diags
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// symSpec is the name-level view of a specification: its symbols and
// named properties. Ops map to their arity.
type symSpec struct {
	sorts    map[string]bool
	ops      map[string]int
	predOps  map[string]bool // ops with Boolean result
	axioms   map[string]bool
	theorems map[string]bool
}

func newSymSpec() *symSpec {
	return &symSpec{
		sorts:    map[string]bool{},
		ops:      map[string]int{},
		predOps:  map[string]bool{},
		axioms:   map[string]bool{},
		theorems: map[string]bool{},
	}
}

func (s *symSpec) clone() *symSpec {
	c := newSymSpec()
	for k := range s.sorts {
		c.sorts[k] = true
	}
	for k, v := range s.ops {
		c.ops[k] = v
	}
	for k := range s.predOps {
		c.predOps[k] = true
	}
	for k := range s.axioms {
		c.axioms[k] = true
	}
	for k := range s.theorems {
		c.theorems[k] = true
	}
	return c
}

func (s *symSpec) include(o *symSpec) {
	for k := range o.sorts {
		s.sorts[k] = true
	}
	for k, v := range o.ops {
		s.ops[k] = v
	}
	for k := range o.predOps {
		s.predOps[k] = true
	}
	for k := range o.axioms {
		s.axioms[k] = true
	}
	for k := range o.theorems {
		s.theorems[k] = true
	}
}

// binding is one named value in the lint-time environment.
type binding struct {
	kind speclang.ValueKind
	spec *symSpec // specs, translates, colimits
	// morphisms: declared endpoint spec names.
	morphSrc, morphDst string
	// diagrams: node label -> spec binding name, plus arc endpoints.
	nodes map[string]string
	arcs  [][2]string
}

// declSite records where a sort/op was first declared, for unused checks.
type declSite struct {
	name string
	line int
	in   string
}

type linter struct {
	file       string
	env        map[string]*binding
	used       map[string]bool // symbol names referenced anywhere
	sortDecls  []declSite
	opDecls    []declSite
	axiomDecls []declSite
	diags      []Diagnostic
}

func (l *linter) report(line int, rule string, sev Severity, format string, args ...any) {
	l.diags = append(l.diags, Diagnostic{
		File:     l.file,
		Line:     line,
		Rule:     rule,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

func isBaseSort(name string) bool { return name == "Nat" || name == "Boolean" || name == "" }

func (l *linter) lookupSpec(name string, line int) *symSpec {
	b, ok := l.env[name]
	if !ok {
		l.report(line, "unbound-name", SevError, "%s is not defined", name)
		return nil
	}
	if b.spec == nil {
		l.report(line, "wrong-kind", SevError, "%s is not a specification", name)
		return nil
	}
	return b.spec
}

func (l *linter) stmt(stmt speclang.Stmt) {
	name := stmt.Name
	switch e := stmt.Expr.(type) {
	case *speclang.SpecExpr:
		l.bind(name, &binding{kind: speclang.KindSpec, spec: l.checkSpec(name, e, stmt.Line)})
	case *speclang.TranslateExpr:
		l.bind(name, &binding{kind: speclang.KindSpec, spec: l.checkTranslate(e, stmt.Line)})
	case *speclang.MorphismExpr:
		l.checkMorphism(e, stmt.Line)
		l.bind(name, &binding{kind: speclang.KindMorphism, morphSrc: e.Source, morphDst: e.Target})
	case *speclang.DiagramExpr:
		l.bind(name, l.checkDiagram(e, stmt.Line))
	case *speclang.ColimitExpr:
		l.bind(name, l.checkColimit(e, stmt.Line))
	case *speclang.ProveExpr:
		l.checkProve(e, stmt.Line)
		l.bind(name, &binding{kind: speclang.KindProof})
	case *speclang.PrintExpr:
		if _, ok := l.env[e.Name]; !ok {
			l.report(stmt.Line, "unbound-name", SevError, "print %s: not defined", e.Name)
		}
		l.bind(name, &binding{kind: speclang.KindText})
	}
}

func (l *linter) bind(name string, b *binding) {
	if name == "" {
		return
	}
	l.env[name] = b
}

// checkSpec builds the name-level table of a spec block while checking
// declarations and formulas.
func (l *linter) checkSpec(name string, e *speclang.SpecExpr, line int) *symSpec {
	s := newSymSpec()
	for _, imp := range e.Imports {
		if imported := l.lookupSpec(imp, line); imported != nil {
			s.include(imported)
		}
	}
	for _, sd := range e.Sorts {
		if !s.sorts[sd.Name] {
			l.sortDecls = append(l.sortDecls, declSite{name: sd.Name, line: sd.Line, in: name})
		}
		s.sorts[sd.Name] = true
		for _, ref := range defSortRefs(sd.Def) {
			l.used[ref] = true
			if !s.sorts[ref] && !isBaseSort(ref) {
				l.report(sd.Line, "undeclared-sort", SevWarning,
					"sort %s definition references undeclared sort %s", sd.Name, ref)
			}
		}
	}
	for _, od := range e.Ops {
		if prev, dup := s.ops[od.Name]; dup && prev != len(od.Args) {
			l.report(od.Line, "op-redeclared", SevError,
				"op %s redeclared with arity %d (was %d)", od.Name, len(od.Args), prev)
		}
		if _, dup := s.ops[od.Name]; !dup {
			l.opDecls = append(l.opDecls, declSite{name: od.Name, line: od.Line, in: name})
		}
		s.ops[od.Name] = len(od.Args)
		if od.Result == "Boolean" {
			s.predOps[od.Name] = true
		}
		for _, a := range od.Args {
			l.used[a] = true
			if !s.sorts[a] && !isBaseSort(a) {
				l.report(od.Line, "undeclared-sort", SevError,
					"op %s argument sort %s is not declared", od.Name, a)
			}
		}
		l.used[od.Result] = true
		if !s.sorts[od.Result] && !isBaseSort(od.Result) {
			l.report(od.Line, "undeclared-sort", SevError,
				"op %s result sort %s is not declared", od.Name, od.Result)
		}
	}
	own := map[string]bool{}
	for _, ax := range e.Axioms {
		if own["a:"+ax.Name] {
			l.report(ax.Line, "duplicate-axiom", SevError, "duplicate axiom name %s", ax.Name)
		}
		own["a:"+ax.Name] = true
		if !s.axioms[ax.Name] {
			l.axiomDecls = append(l.axiomDecls, declSite{name: ax.Name, line: ax.Line, in: name})
		}
		s.axioms[ax.Name] = true
		l.checkFormula(s, ax.Formula, map[string]bool{}, ax.Line)
	}
	for _, th := range e.Theorems {
		if own["t:"+th.Name] {
			l.report(th.Line, "duplicate-axiom", SevError, "duplicate theorem name %s", th.Name)
		}
		own["t:"+th.Name] = true
		s.theorems[th.Name] = true
		l.checkFormula(s, th.Formula, map[string]bool{}, th.Line)
	}
	return s
}

// defSortRefs extracts sort names referenced by a sort definition, which
// is either an alias ("Clockvalues") or a record ("{p:Processors, ...}").
func defSortRefs(def string) []string {
	if def == "" {
		return nil
	}
	if !strings.HasPrefix(def, "{") {
		return []string{def}
	}
	var refs []string
	for _, field := range strings.Split(strings.Trim(def, "{}"), ",") {
		if _, sortName, ok := strings.Cut(field, ":"); ok {
			refs = append(refs, strings.TrimSpace(sortName))
		}
	}
	return refs
}

// checkFormula walks a surface formula checking symbol references
// against the spec's signature, with bound variables in scope.
func (l *linter) checkFormula(s *symSpec, f speclang.FormulaNode, bound map[string]bool, line int) {
	switch x := f.(type) {
	case *speclang.FQuant:
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, b := range x.Binders {
			inner[b.Name] = true
			if b.Sort != "" {
				l.used[b.Sort] = true
				if !s.sorts[b.Sort] && !isBaseSort(b.Sort) {
					l.report(line, "undeclared-sort", SevWarning,
						"binder %s has undeclared sort %s", b.Name, b.Sort)
				}
			}
		}
		l.checkFormula(s, x.Body, inner, line)
	case *speclang.FBinary:
		l.checkFormula(s, x.L, bound, line)
		l.checkFormula(s, x.R, bound, line)
	case *speclang.FNot:
		l.checkFormula(s, x.Sub, bound, line)
	case *speclang.FIfThenElse:
		l.checkFormula(s, x.Cond, bound, line)
		l.checkFormula(s, x.Then, bound, line)
		if x.Else != nil {
			l.checkFormula(s, x.Else, bound, line)
		}
	case *speclang.FAtom:
		l.used[x.Name] = true
		arity, declared := s.ops[x.Name]
		switch {
		case !declared:
			l.report(line, "undeclared-symbol", SevError,
				"predicate %s is not declared", x.Name)
		case arity != len(x.Args):
			l.report(line, "arity-mismatch", SevError,
				"predicate %s declared with arity %d, applied to %d args", x.Name, arity, len(x.Args))
		case !s.predOps[x.Name]:
			l.report(line, "non-predicate-atom", SevError,
				"%s used as a predicate but its result sort is not Boolean", x.Name)
		}
		for _, a := range x.Args {
			l.checkTerm(s, a, bound, line)
		}
	case *speclang.FCompare:
		l.checkTerm(s, x.L, bound, line)
		l.checkTerm(s, x.R, bound, line)
	}
}

// checkTerm checks one surface term.
func (l *linter) checkTerm(s *symSpec, t speclang.TermNode, bound map[string]bool, line int) {
	switch x := t.(type) {
	case *speclang.TName:
		if bound[x.Name] {
			return
		}
		l.used[x.Name] = true
		arity, declared := s.ops[x.Name]
		if !declared {
			l.report(line, "undeclared-symbol", SevError,
				"identifier %s is neither a bound variable nor a declared op", x.Name)
			return
		}
		if arity != 0 {
			l.report(line, "arity-mismatch", SevError,
				"%s used as a constant but declared with arity %d", x.Name, arity)
		}
	case *speclang.TApply:
		if x.Name == "not" && len(x.Args) == 1 {
			// `~(term)` parses to the built-in term function "not".
			l.checkTerm(s, x.Args[0], bound, line)
			return
		}
		l.used[x.Name] = true
		arity, declared := s.ops[x.Name]
		switch {
		case !declared:
			l.report(line, "undeclared-symbol", SevError,
				"function %s is not declared", x.Name)
		case arity != len(x.Args):
			l.report(line, "arity-mismatch", SevError,
				"function %s declared with arity %d, applied to %d args", x.Name, arity, len(x.Args))
		}
		for _, a := range x.Args {
			l.checkTerm(s, a, bound, line)
		}
	case *speclang.TArith:
		l.checkTerm(s, x.L, bound, line)
		l.checkTerm(s, x.R, bound, line)
	case *speclang.TNumber:
		// Numerals are always well-formed.
	}
}

// checkTranslate builds the renamed copy of the source table.
func (l *linter) checkTranslate(e *speclang.TranslateExpr, line int) *symSpec {
	src := l.lookupSpec(e.Source, line)
	if src == nil {
		return nil
	}
	rename := map[string]string{}
	for _, rp := range e.Renames {
		l.used[rp.From] = true
		l.used[rp.To] = true
		if _, dup := rename[rp.From]; dup {
			l.report(line, "duplicate-rename", SevError,
				"translate renames %s twice", rp.From)
			continue
		}
		rename[rp.From] = rp.To
		if !src.sorts[rp.From] {
			if _, isOp := src.ops[rp.From]; !isOp {
				l.report(line, "rename-unknown-symbol", SevError,
					"translate of %s renames %s, which it does not declare", e.Source, rp.From)
			}
		}
	}
	out := newSymSpec()
	ren := func(n string) string {
		if to, ok := rename[n]; ok {
			return to
		}
		return n
	}
	for k := range src.sorts {
		out.sorts[ren(k)] = true
	}
	for k, v := range src.ops {
		out.ops[ren(k)] = v
	}
	for k := range src.predOps {
		out.predOps[ren(k)] = true
	}
	for k := range src.axioms {
		out.axioms[k] = true
	}
	for k := range src.theorems {
		out.theorems[k] = true
	}
	return out
}

// checkMorphism runs the totality pre-checks of a morphism expression:
// every rename source must exist, and every source symbol must have an
// image (mapped or identity) in the target with matching arity.
func (l *linter) checkMorphism(e *speclang.MorphismExpr, line int) {
	src := l.lookupSpec(e.Source, line)
	dst := l.lookupSpec(e.Target, line)
	rename := map[string]string{}
	for _, rp := range e.Renames {
		l.used[rp.From] = true
		l.used[rp.To] = true
		if _, dup := rename[rp.From]; dup {
			l.report(line, "duplicate-rename", SevError,
				"morphism %s -> %s maps %s twice", e.Source, e.Target, rp.From)
			continue
		}
		rename[rp.From] = rp.To
		if src != nil && !src.sorts[rp.From] {
			if _, isOp := src.ops[rp.From]; !isOp {
				l.report(line, "morphism-unknown-symbol", SevError,
					"morphism maps %s, which source %s does not declare", rp.From, e.Source)
			}
		}
	}
	if src == nil || dst == nil {
		return
	}
	image := func(n string) string {
		if to, ok := rename[n]; ok {
			return to
		}
		return n
	}
	for srt := range src.sorts {
		img := image(srt)
		if !dst.sorts[img] && !isBaseSort(img) {
			l.report(line, "morphism-not-total", SevError,
				"sort %s has no image in target %s (maps to %s)", srt, e.Target, img)
		}
	}
	for op, arity := range src.ops {
		img := image(op)
		dstArity, ok := dst.ops[img]
		if !ok {
			l.report(line, "morphism-not-total", SevError,
				"op %s has no image in target %s (maps to %s)", op, e.Target, img)
			continue
		}
		if dstArity != arity {
			l.report(line, "morphism-arity-mismatch", SevError,
				"op %s (arity %d) maps to %s (arity %d) in %s", op, arity, img, dstArity, e.Target)
		}
	}
}

// checkDiagram validates shape: unique labeled nodes bound to specs,
// arcs between declared nodes with endpoint-consistent morphisms, and a
// connected underlying graph (a disconnected diagram's colimit is a
// disjoint union — never what the composition chains intend).
func (l *linter) checkDiagram(e *speclang.DiagramExpr, line int) *binding {
	b := &binding{kind: speclang.KindDiagram, nodes: map[string]string{}}
	for _, n := range e.Nodes {
		if _, dup := b.nodes[n.Label]; dup {
			l.report(n.Line, "diagram-duplicate-node", SevError, "duplicate node label %s", n.Label)
			continue
		}
		l.lookupSpec(n.Spec, n.Line)
		b.nodes[n.Label] = n.Spec
	}
	for _, a := range e.Arcs {
		fromSpec, okFrom := b.nodes[a.From]
		toSpec, okTo := b.nodes[a.To]
		if !okFrom {
			l.report(a.Line, "diagram-unknown-node", SevError, "arc %s references unknown node %s", a.Label, a.From)
		}
		if !okTo {
			l.report(a.Line, "diagram-unknown-node", SevError, "arc %s references unknown node %s", a.Label, a.To)
		}
		var mSrc, mDst string
		switch m := a.M.(type) {
		case *speclang.MorphismExpr:
			l.checkMorphism(m, a.Line)
			mSrc, mDst = m.Source, m.Target
		case *speclang.MorphismRef:
			mb, ok := l.env[m.Name]
			if !ok {
				l.report(a.Line, "unbound-name", SevError, "arc %s references undefined morphism %s", a.Label, m.Name)
				continue
			}
			if mb.kind != speclang.KindMorphism {
				l.report(a.Line, "wrong-kind", SevError, "arc %s: %s is not a morphism", a.Label, m.Name)
				continue
			}
			mSrc, mDst = mb.morphSrc, mb.morphDst
		}
		if okFrom && mSrc != "" && mSrc != fromSpec {
			l.report(a.Line, "diagram-arc-mismatch", SevError,
				"arc %s: morphism source %s but node %s is %s", a.Label, mSrc, a.From, fromSpec)
		}
		if okTo && mDst != "" && mDst != toSpec {
			l.report(a.Line, "diagram-arc-mismatch", SevError,
				"arc %s: morphism target %s but node %s is %s", a.Label, mDst, a.To, toSpec)
		}
		if okFrom && okTo {
			b.arcs = append(b.arcs, [2]string{a.From, a.To})
		}
	}
	if len(b.nodes) >= 2 {
		if n := componentCount(b.nodes, b.arcs); n > 1 {
			l.report(line, "diagram-disconnected", SevError,
				"diagram has %d disconnected components; its colimit is a disjoint union, not a composition", n)
		}
	}
	return b
}

// componentCount counts connected components of the underlying
// undirected node graph.
func componentCount(nodes map[string]string, arcs [][2]string) int {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for n := range nodes {
		parent[n] = n
	}
	for _, a := range arcs {
		parent[find(a[0])] = find(a[1])
	}
	roots := map[string]bool{}
	for n := range nodes {
		roots[find(n)] = true
	}
	return len(roots)
}

// checkColimit resolves the diagram and produces the apex's name-level
// table: the union of the node tables (colimit identification can only
// merge classes, so the union over-approximates — which is the safe
// direction for presence checks).
func (l *linter) checkColimit(e *speclang.ColimitExpr, line int) *binding {
	db, ok := l.env[e.Diagram]
	if !ok {
		l.report(line, "unbound-name", SevError, "colimit of undefined diagram %s", e.Diagram)
		return &binding{kind: speclang.KindColimit, spec: newSymSpec()}
	}
	if db.kind != speclang.KindDiagram {
		l.report(line, "wrong-kind", SevError, "colimit of %s, which is not a diagram", e.Diagram)
		return &binding{kind: speclang.KindColimit, spec: newSymSpec()}
	}
	apex := newSymSpec()
	for label, specName := range db.nodes {
		nb, ok := l.env[specName]
		if !ok || nb.spec == nil {
			continue
		}
		apex.include(nb.spec)
		// The colimit qualifies clashing axiom/theorem names with the
		// node label; make both spellings findable for prove checks.
		for ax := range nb.spec.axioms {
			apex.axioms[label+"_"+ax] = true
		}
		for th := range nb.spec.theorems {
			apex.theorems[label+"_"+th] = true
		}
	}
	return &binding{kind: speclang.KindColimit, spec: apex}
}

// checkProve verifies the theorem and every axiom in the using list
// exist in the named spec.
func (l *linter) checkProve(e *speclang.ProveExpr, line int) {
	s := l.lookupSpec(e.In, line)
	if s == nil {
		return
	}
	if !s.theorems[e.Theorem] {
		l.report(line, "prove-unknown-theorem", SevError,
			"prove %s in %s: no such theorem", e.Theorem, e.In)
	}
	for _, ax := range e.Using {
		// Axiom names share the listings' namespace with ops (the thesis
		// names axioms after the op they constrain), so a `using` mention
		// counts as use for the unused-symbol pass.
		l.used[ax] = true
		if !s.axioms[ax] {
			l.report(line, "prove-unknown-axiom", SevError,
				"prove %s in %s: using names axiom %s, which %s does not contain", e.Theorem, e.In, ax, e.In)
		}
	}
}

// reportUnused emits warnings for sorts and ops that are declared but
// never referenced anywhere in the file (op profiles, sort definitions,
// formulas, rename lists). Unused symbols are dead weight that every
// downstream colimit drags along.
func (l *linter) reportUnused() {
	for _, d := range l.sortDecls {
		if !l.used[d.name] {
			l.report(d.line, "unused-sort", SevWarning,
				"sort %s declared in %s is never referenced", d.name, d.in)
		}
	}
	for _, d := range l.opDecls {
		if !l.used[d.name] {
			l.report(d.line, "unused-op", SevWarning,
				"op %s declared in %s is never referenced", d.name, d.in)
		}
	}
	// An axiom is "used" when its name appears anywhere — typically a
	// `prove ... using` list, or (thesis convention) when it shares its
	// name with the op it constrains. An axiom nothing can ever cite is
	// usually a misspelling of that op name.
	for _, d := range l.axiomDecls {
		if !l.used[d.name] {
			l.report(d.line, "unused-axiom", SevWarning,
				"axiom %s declared in %s is never cited by a proof or op name", d.name, d.in)
		}
	}
}
