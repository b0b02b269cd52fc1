package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the first third of the analysis core every check layer
// instantiates: the one //ns:verb directive grammar, the reasoned
// suppression table, the bound/unbound directive tracker, and the one
// diagnostic filter + sort. A layer supplies its namespace, its verb
// table and its rules; it never parses a comment itself.

// Directive is one parsed //ns:verb args annotation.
type Directive struct {
	NS   string
	Verb string
	Args []string
	// Rest is the raw argument text (reason-bearing verbs keep spaces).
	Rest string
	// Pos is the position of the comment carrying the directive.
	Pos token.Position
}

// String renders the directive head, "//ns:verb".
func (d Directive) String() string { return "//" + d.NS + ":" + d.Verb }

// ParseDirectives extracts the directives of one comment, whatever their
// namespace. The comment must BEGIN with a directive — prose that merely
// mentions "//fsm:..." is not one — and may carry several separated by
// "//", each namespace reading its own segments and skipping the others':
// "//fsm:msg tpc cohort //dur:requires state".
func ParseDirectives(text string, pos token.Position) []Directive {
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if _, _, ok := cutNamespace(body); !ok {
		return nil
	}
	var out []Directive
	for _, seg := range strings.Split(body, "//") {
		ns, rest, ok := cutNamespace(strings.TrimSpace(seg))
		if !ok {
			continue
		}
		verb, args, _ := strings.Cut(rest, " ")
		args = strings.TrimSpace(args)
		out = append(out, Directive{NS: ns, Verb: verb, Args: strings.Fields(args), Rest: args, Pos: pos})
	}
	return out
}

// cutNamespace splits "ns:verb..." at the colon: a namespace is a run of
// lower-case letters, and the verb starts right after the colon.
func cutNamespace(seg string) (ns, rest string, ok bool) {
	i := strings.IndexByte(seg, ':')
	if i <= 0 || i+1 >= len(seg) || seg[i+1] < 'a' || seg[i+1] > 'z' {
		return "", "", false
	}
	for _, c := range seg[:i] {
		if c < 'a' || c > 'z' {
			return "", "", false
		}
	}
	return seg[:i], seg[i+1:], true
}

// CommentDirectives parses every comment of the groups (nil groups are
// skipped), all namespaces, unvalidated.
func CommentDirectives(pkg *Package, groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			out = append(out, ParseDirectives(c.Text, pkg.Fset.Position(c.Pos()))...)
		}
	}
	return out
}

// VerbKind says what a well-formed directive of a verb does.
type VerbKind int

const (
	// Bound directives must attach to a declaration: the layer calls
	// Scope.Bind when one does, and the rest are reported.
	Bound VerbKind = iota
	// Placed directives are keyed by position; the layer reads them from
	// Scope.Placed and interprets them itself.
	Placed
	// Suppresses directives drop findings on their own and the next line.
	// The trailing arguments are the mandatory reason.
	Suppresses
)

// RuleArg as a Suppresses verb's Rule scopes the suppression to the rule
// named by the directive's first argument (//lint:allow <rule> <reason>).
const RuleArg = "<rule>"

// Verb is one row of a namespace's verb table. A key containing a colon
// ("lint:allow") borrows a verb of another namespace.
type Verb struct {
	Kind VerbKind
	// Min and Max bound the argument count; Max < 0 means no upper bound.
	Min, Max int
	// Usage is the finding reported when the count is out of bounds — for
	// a Suppresses verb, when the reason is missing. It is a format whose
	// %[1]s is the verb and %[2]d the argument count. An empty Usage
	// drops the malformed directive silently (borrowed verbs: the owning
	// namespace reports it).
	Usage string
	// Where is the finding reported when a Bound directive attaches to
	// nothing, in the same format; empty means the generic text.
	Where string
	// Rule scopes a Suppresses verb: "" covers every rule the scope
	// reports, RuleArg the rule named by the first argument, anything
	// else exactly that rule.
	Rule string
}

// Scope is one namespace's session over a load: it validates the
// namespace's directives against the verb table, collects the layer's
// findings, and applies the reasoned suppressions to them.
type Scope struct {
	ns      string
	extract string
	verbs   map[string]Verb
	diags   []Diagnostic
	// suppressed maps file -> line -> the rules suppressed there ("" is
	// every rule).
	suppressed map[string]map[int][]string
	// bound holds the validated Bound directives by the position of their
	// comment, unbound those no declaration has claimed yet (by directive
	// position); placed lists the validated Placed ones in source order.
	bound   map[token.Pos][]Directive
	unbound map[token.Position]Directive
	placed  []Directive
}

// NewScope scans every comment of the load for directives of namespace ns
// (and the borrowed verbs of the table). Unknown verbs and malformed
// directives are reported under the extract rule.
func NewScope(pkgs []*Package, ns, extract string, verbs map[string]Verb) *Scope {
	s := &Scope{
		ns: ns, extract: extract, verbs: verbs,
		suppressed: map[string]map[int][]string{},
		bound:      map[token.Pos][]Directive{},
		unbound:    map[token.Position]Directive{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, d := range ParseDirectives(c.Text, pkg.Fset.Position(c.Pos())) {
						s.scan(c.Pos(), d)
					}
				}
			}
		}
	}
	return s
}

func (s *Scope) scan(at token.Pos, d Directive) {
	key := d.Verb
	if d.NS != s.ns {
		key = d.NS + ":" + d.Verb
	}
	v, known := s.verbs[key]
	switch {
	case !known && d.NS == s.ns:
		s.ReportAt(d.Pos, s.extract, "unknown directive %s", d)
		return
	case !known:
		return
	case len(d.Args) < v.Min || (v.Max >= 0 && len(d.Args) > v.Max):
		if v.Usage != "" {
			s.ReportAt(d.Pos, s.extract, v.Usage, d.Verb, len(d.Args))
		}
		return
	}
	switch v.Kind {
	case Suppresses:
		rule := v.Rule
		if rule == RuleArg {
			rule = d.Args[0]
		}
		lines := s.suppressed[d.Pos.Filename]
		if lines == nil {
			lines = map[int][]string{}
			s.suppressed[d.Pos.Filename] = lines
		}
		// The directive covers its own line (end-of-line comment) and the
		// next line (comment placed above the offending line).
		lines[d.Pos.Line] = append(lines[d.Pos.Line], rule)
		lines[d.Pos.Line+1] = append(lines[d.Pos.Line+1], rule)
	case Placed:
		s.placed = append(s.placed, d)
	case Bound:
		s.unbound[d.Pos] = d
		s.bound[at] = append(s.bound[at], d)
	}
}

// Reportf records a finding at pos of pkg.
func (s *Scope) Reportf(pkg *Package, pos token.Pos, rule, format string, args ...any) {
	s.ReportAt(pkg.Fset.Position(pos), rule, format, args...)
}

// ReportAt records a finding at an already-resolved position.
func (s *Scope) ReportAt(pos token.Position, rule, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{Pos: pos, Rule: rule, Message: fmt.Sprintf(format, args...)})
}

// Directives returns the scope's well-formed Bound directives carried by
// the comment groups (nil groups are skipped) — what a declaration's doc
// or trailing comment attaches to it.
func (s *Scope) Directives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			out = append(out, s.bound[c.Pos()]...)
		}
	}
	return out
}

// Placed returns the well-formed Placed directives in source order.
func (s *Scope) Placed() []Directive { return s.placed }

// Bind records that a Bound directive attached to a declaration.
func (s *Scope) Bind(d Directive) { delete(s.unbound, d.Pos) }

// ReportUnbound flags the Bound directives that never attached to a
// declaration (an //fsm:state floating in a stray comment).
func (s *Scope) ReportUnbound() {
	for _, d := range s.unbound {
		where := s.verbs[d.Verb].Where
		if where == "" {
			where = "//" + s.ns + ":%[1]s is not attached to a declaration"
		}
		s.ReportAt(d.Pos, s.extract, where, d.Verb, len(d.Args))
	}
}

// Diagnostics returns the findings that survive the reasoned
// suppressions, in the canonical order.
func (s *Scope) Diagnostics() []Diagnostic {
	var out []Diagnostic
	for _, d := range s.diags {
		if !s.covered(d) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

func (s *Scope) covered(d Diagnostic) bool {
	for _, rule := range s.suppressed[d.Pos.Filename][d.Pos.Line] {
		if rule == "" || rule == d.Rule {
			return true
		}
	}
	return false
}

// sortDiagnostics orders findings by file, line, rule, message and column
// — the one order every layer reports in.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Pos.Column < b.Pos.Column
	})
}
