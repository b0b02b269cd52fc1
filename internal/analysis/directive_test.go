package analysis_test

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"speccat/internal/analysis"
)

// grammarSrc exercises the shared directive grammar. Line numbers matter:
// the test reports synthetic findings on the lines marked L<n>.
const grammarSrc = `package g

const (
	kindA = "a" //aa:msg m cohort //bb:requires state
	kindB = "b" //aa:msg onlyone
)

// Prose that mentions //aa:msg m r mid-sentence is not a directive.

//aa:msg m floating

//aa:pinned floats too

//aa:bogus x

//aa:ignore

//aa:ignore the next line is suppressed for every rule
var l19 = 1 //aa:ordered only the order rule is suppressed here

var l21 = 2 //lint:allow aa-other borrowed rule-scoped suppression

var l23 = 3 //lint:allow aa-other
`

var grammarVerbs = map[string]analysis.Verb{
	"msg":        {Min: 2, Max: 2, Usage: "//aa:%[1]s wants <machine> <role>, got %[2]d"},
	"pinned":     {Max: -1, Where: "//aa:%[1]s belongs on a declaration"},
	"from":       {Kind: analysis.Placed, Min: 1, Max: 1, Usage: "//aa:%[1]s wants a list"},
	"ignore":     {Kind: analysis.Suppresses, Min: 1, Max: -1, Usage: "//aa:%[1]s needs a reason"},
	"ordered":    {Kind: analysis.Suppresses, Rule: "aa-order", Min: 1, Max: -1, Usage: "//aa:%[1]s needs a reason"},
	"lint:allow": {Kind: analysis.Suppresses, Rule: analysis.RuleArg, Min: 2, Max: -1},
}

// TestDirectiveGrammar pins the one //ns:verb grammar every layer shares:
// several namespaces on one trailing comment, reasonless and rule-scoped
// suppression, unknown verb, wrong arity, unbound directive.
func TestDirectiveGrammar(t *testing.T) {
	pkgs := loadSource(t, grammarSrc)
	pkg := pkgs[0]
	file := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	s := analysis.NewScope(pkgs, "aa", "aa-extract", grammarVerbs)

	// Several namespaces on one trailing comment: each scope reads its own
	// segment. The const spec carries exactly one well-formed aa directive.
	var bound []string
	analysis.EachConstSpec(pkgs, func(_ *analysis.Package, spec *ast.ValueSpec) {
		for _, d := range s.Directives(spec.Comment) {
			bound = append(bound, d.String()+" "+strings.Join(d.Args, ","))
			s.Bind(d)
		}
	})
	if got := strings.Join(bound, "; "); got != "//aa:msg m,cohort" {
		t.Errorf("const-bound aa directives = %q, want only the well-formed //aa:msg on kindA", got)
	}
	all := analysis.ParseDirectives(`//aa:msg m cohort //bb:requires state // want nothing`, token.Position{})
	if len(all) != 2 || all[0].NS != "aa" || all[1].NS != "bb" || all[1].Args[0] != "state" {
		t.Errorf("ParseDirectives split = %+v, want the aa and bb segments", all)
	}
	if ds := analysis.ParseDirectives(`// mentions //aa:msg m r in prose`, token.Position{}); ds != nil {
		t.Errorf("prose mention parsed as directives: %+v", ds)
	}

	// Synthetic findings to suppress: lines 18..23 of grammarSrc.
	for _, f := range []struct {
		line int
		rule string
	}{
		{15, "aa-any"},   // under the reasonless ignore: survives
		{18, "aa-any"},   // own line of the reasoned ignore
		{19, "aa-any"},   // next line of the reasoned ignore
		{19, "aa-order"}, // also covered by the trailing //aa:ordered
		{20, "aa-order"}, // next line of //aa:ordered
		{20, "aa-any"},   // //aa:ordered is rule-scoped: survives
		{21, "aa-other"}, // borrowed //lint:allow names this rule
		{21, "aa-any"},   // ... and only this rule: survives
		{23, "aa-other"}, // reasonless borrowed allow never suppresses
	} {
		s.ReportAt(token.Position{Filename: file, Line: f.line, Column: 1}, f.rule, "synthetic")
	}
	s.ReportUnbound()

	var got []string
	for _, d := range s.Diagnostics() {
		got = append(got, strings.TrimPrefix(d.String(), file+":"))
	}
	want := []string{
		"5:14: aa-extract: //aa:msg wants <machine> <role>, got 1", // wrong arity, with the count
		"10:1: aa-extract: //aa:msg is not attached to a declaration",
		"12:1: aa-extract: //aa:pinned belongs on a declaration", // the verb's own Where text
		"14:1: aa-extract: unknown directive //aa:bogus",
		"15:1: aa-any: synthetic",
		"16:1: aa-extract: //aa:ignore needs a reason",
		"20:1: aa-any: synthetic",
		"21:1: aa-any: synthetic",
		"23:1: aa-other: synthetic", // and no finding for the malformed borrowed allow
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
