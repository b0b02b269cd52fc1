// Package analysis is a vet-style multi-analyzer framework over the
// standard library's go/ast, go/parser and go/types packages. It encodes
// the repository's DESIGN.md design rules — no panics reachable from
// exported API, no wall-clock time outside the simulator, no global
// math/rand source, no package-level mutable state, %w error wrapping —
// as mechanical checks, in the same spirit as the paper's thesis that
// composition errors should be caught by cheap static well-formedness
// checks before any prover (or reviewer) runs.
//
// Findings can be suppressed at the site with a reason:
//
//	//lint:allow <rule> <reason...>
//
// placed either at the end of the offending line or on the line
// immediately above it. A suppression without a reason is itself a
// finding.
//
// The package is also the core the five check layers in its
// subdirectories instantiate (DESIGN.md "Analysis core"): the //ns:verb
// directive grammar with suppression and reporting (directive.go), the
// function index with root discovery and call-graph closures (funcs.go,
// kinds.go), and the generic forward dataflow (flow.go).
package analysis

import (
	"fmt"
	"go/token"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named design-rule check.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-line description of the rule.
	Doc string
	// Run reports findings on one package through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	scope    *Scope
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.scope.Reportf(p.Pkg, pos, p.Analyzer.Name, format, args...)
}

// Analyzers returns the full rule set in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoPanic,
		NoWallClock,
		NoRand,
		NoGlobalState,
		ErrWrap,
	}
}

// ByName returns the named analyzer, if registered.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// allowVerbs is the design-rule layer's verb table: the rule-scoped
// //lint:allow suppression, whose malformed uses are lint-allow findings.
var allowVerbs = map[string]Verb{ //lint:allow noglobalstate immutable lookup table
	"allow": {Kind: Suppresses, Rule: RuleArg, Min: 2, Max: -1,
		Usage: "malformed suppression: want //lint:%[1]s <rule> <reason>"},
}

// Run applies the analyzers to the packages and returns surviving
// diagnostics (suppressions applied), sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	scope := NewScope(pkgs, "lint", "lint-allow", allowVerbs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, scope: scope})
		}
	}
	return scope.Diagnostics()
}
