// Package layers is the one table of Go analysis layers: speccatlint and
// the tier-1 lint test iterate it, so a layer is listed, selectable and
// run everywhere once it has a row here.
package layers

import (
	"speccat/internal/analysis"
	"speccat/internal/analysis/commcheck"
	"speccat/internal/analysis/durcheck"
	"speccat/internal/analysis/fsmcheck"
	"speccat/internal/analysis/lockcheck"
	"speccat/internal/analysis/portcheck"
)

// Layer is one row of the table.
type Layer struct {
	// Name selects the layer (speccatlint -only <name>) and tags its
	// findings in -json output.
	Name string
	// Rules is the rule-name pattern the layer reports under, for -list;
	// empty for the base layer, whose rules are the analyzers themselves.
	Rules string
	// Doc is the one-line description shown by -list.
	Doc string
	// Run analyzes the packages and returns the layer's coverage report
	// (nil when it has none) and its surviving findings, sorted.
	Run func(pkgs []*analysis.Package) (report any, diags []analysis.Diagnostic)
}

// Go returns the Go analysis layers in run order.
func Go() []Layer {
	return []Layer{
		{Name: "base", Doc: "Go design-rule analyzers (internal/analysis)",
			Run: func(pkgs []*analysis.Package) (any, []analysis.Diagnostic) {
				return nil, analysis.Run(pkgs, analysis.Analyzers())
			}},
		{Name: "fsm", Rules: "fsm-*", Run: erase(fsmcheck.Run),
			Doc: "protocol state-machine extraction, totality and model cross-validation (fsmcheck)"},
		{Name: "dur", Rules: "dur-*", Run: erase(durcheck.Run),
			Doc: "write-ahead / durability-ordering dataflow analysis (durcheck)"},
		{Name: "port", Rules: "rt-*", Run: erase(portcheck.Run),
			Doc: "runtime-boundary / state-confinement analysis (portcheck)"},
		{Name: "comm", Rules: "comm-*", Run: erase(commcheck.Run),
			Doc: "commutativity-derived lock modes vs the discharged spec matrix (commcheck)"},
		{Name: "lock", Rules: "lock-*", Run: erase(lockcheck.Run),
			Doc: "two-phase-locking dataflow analysis (lockcheck)"},
	}
}

// erase adapts a layer's typed Run to the table's shape.
func erase[R any](run func([]*analysis.Package) (R, []analysis.Diagnostic)) func([]*analysis.Package) (any, []analysis.Diagnostic) {
	return func(pkgs []*analysis.Package) (any, []analysis.Diagnostic) { return run(pkgs) }
}
