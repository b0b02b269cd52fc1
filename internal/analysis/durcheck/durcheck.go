// Package durcheck is the fourth static-analysis layer of speccatlint: a
// write-ahead / durability-ordering dataflow analysis over the protocol
// engines. The thesis's recovery argument (Global Property 3, the undo/redo
// building block of Section 3.5.1) rests on one operational discipline —
// state is forced to stable storage *before* any externally visible action
// depends on it. durcheck makes that discipline a static invariant: it
// walks every protocol handler, classifies statements as durable writes,
// volatile writes, and externally visible sends, and checks dominance on
// all paths.
//
// Analysis roots are the //fsm:handler-annotated dispatch functions plus
// //dur:handler opt-ins; from each root the same-module call graph is
// followed, bridging interface calls to every implementation in the load. A call counts as a durable write of some class when it
// reaches a stable.Store mutation (Put/Delete/Append/TruncateLog), a
// wal.Log mutator (Begin/LoggedUpdate/Commit/Abort) or wal.Resolve — either
// directly, via one level of call summaries, or via an asserted
// //dur:writes annotation. Sends are simnet.Network.Send / Broadcast calls
// and same-package wrappers that forward a kind parameter to one.
//
// Annotation grammar:
//
//	//dur:requires <class>     trailing a wire-kind string constant: every
//	                           send of this kind must be dominated by a
//	                           durable write of <class> on all paths
//	//dur:writes <class...>    in a function's doc: calling it is a durable
//	                           write of those classes (checked to actually
//	                           reach stable storage)
//	//dur:handler              in a function's doc: analysis root that is
//	                           not message dispatch (Begin, RecoverAll)
//	//dur:volatile             trailing a field or var declaration: writes
//	                           to it must be dominated by a durable write
//	//dur:applies <param>      in a function's doc: assignments through the
//	                           named map parameter are the volatile applies
//	                           its own log write must dominate (wal)
//	//dur:ignore <reason>      suppresses dur findings on its own and the
//	                           next line; reason mandatory
//
// Rules reported: dur-send (a requiring send not dominated by the matching
// durable write — the message carries the branch that skips the write when
// one exists on another path), dur-volatile (volatile write not dominated
// by any durable write), dur-summary (a requiring send dominated only by an
// unannotated durable write, or a //dur:writes annotation on a function
// that never reaches stable storage), dur-extract (malformed or unbound
// directives, unresolvable send kinds in packages that declare
// requirements).
//
// Static findings are cross-validated dynamically: CrossValidate stages a
// tpcexplore crash-at-send schedule around a send of the offending kind
// and checks that the atomicity or durability oracle fails — see
// crossval.go and experiment E15.
package durcheck

import "speccat/internal/analysis"

// Rule names reported by this layer.
const (
	RuleSend     = "dur-send"
	RuleVolatile = "dur-volatile"
	RuleSummary  = "dur-summary"
	RuleExtract  = "dur-extract"
)

// Report describes what the analysis covered, so tests can pin coverage
// (a clean run over zero handlers would be vacuous, not clean).
type Report struct {
	// Roots are the analysis roots (//fsm:handler + //dur:handler), as
	// "Type.Func" names, sorted.
	Roots []string
	// Analyzed counts the functions the flow analysis walked.
	Analyzed int
	// Requires maps annotated kind-constant names to their required class.
	Requires map[string]string
	// KindValue maps annotated kind-constant names to their wire values
	// (what a schedule's send log records).
	KindValue map[string]string
	// Writes maps //dur:writes-annotated function names to their classes.
	Writes map[string][]string
	// Volatiles lists the //dur:volatile-annotated objects.
	Volatiles []string
}

// verbs is the //dur:* verb table.
var verbs = map[string]analysis.Verb{ //lint:allow noglobalstate immutable lookup table
	"requires": {Min: 1, Max: 1, Usage: "malformed //dur:%[1]s: want exactly one argument, got %[2]d"},
	"applies":  {Min: 1, Max: 1, Usage: "malformed //dur:%[1]s: want exactly one argument, got %[2]d"},
	"writes":   {Min: 1, Max: -1, Usage: "malformed //dur:%[1]s: want at least one class"},
	"handler":  {Usage: "malformed //dur:%[1]s: want no arguments"},
	"volatile": {Usage: "malformed //dur:%[1]s: want no arguments"},
	"ignore":   {Kind: analysis.Suppresses, Min: 1, Max: -1, Usage: "//dur:%[1]s requires a reason"},
}

// Run analyzes the loaded packages and returns the coverage report and the
// surviving diagnostics (with //dur:ignore suppressions applied), sorted
// by position. The run is purely static; see CrossValidate for the
// dynamic confirmation of findings.
func Run(pkgs []*analysis.Package) (*Report, []analysis.Diagnostic) {
	x := newExtractor(pkgs)
	rep := x.extract()
	return rep, x.Diagnostics()
}
