// Package commcheck is the sixth static-analysis layer of speccatlint: a
// commutativity-conformance check over the lock modes of
// internal/locking. The compatibility matrix the runtime grants locks by
// is not a free design choice — every compatible pair must be backed by a
// commutativity argument ("Limits of Commutativity on Abstract Data
// Types"), stated in the paper's own idiom as a speclang spec whose
// prove obligations the resolution prover discharges (comm.sw). commcheck
// closes the loop mechanically: it re-derives the matrix from the
// discharged spec and compares the Go literal against it entry for entry,
// and it checks every lock acquisition in an annotated operation against
// the mode its commutativity class requires.
//
// Annotation grammar:
//
//	//comm:op <class>      in a function's doc: the function implements
//	                       operations of the named commutativity class;
//	                       its locking.Manager.Acquire calls are checked
//	                       against the class's //comm:mode-bound mode
//	//comm:mode <class>    trailing a Mode constant declaration: binds the
//	                       constant to a commutativity class of the spec
//	//comm:matrix <file>   in the compatibility-matrix var's doc: the map
//	                       literal is compared against the matrix derived
//	                       from the prover-discharged spec at <file>
//	                       (relative to the package directory)
//	//comm:ignore <reason> suppresses comm findings on its own and the
//	                       next line; reason mandatory
//
// Rules reported: comm-matrix (a Go matrix entry that disagrees with the
// prover-discharged spec — a pair marked compatible without a discharged
// Safe theorem, or one marked conflicting despite it), comm-overlock (an
// annotated op acquires a strictly stronger mode than its class requires
// — safe, but it forfeits exactly the concurrency the discharged proofs
// license), comm-underlock (an annotated op acquires a mode that admits
// concurrent operations not commuting with it — the unsafe direction),
// and comm-extract (malformed or unattached directives, unknown classes,
// non-constant lock modes in annotated ops, unreadable or undischargeable
// specs).
//
// Static findings are cross-validated dynamically: experiment E18 runs
// the commutative workload mix under the fault-schedule explorer, where
// the serializability oracle holds with the derived modes and fails on a
// seeded comm-underlock ablation (kvstore.Store.PutUnderlocked).
package commcheck

import "speccat/internal/analysis"

// Rule names reported by this layer.
const (
	RuleMatrix    = "comm-matrix"
	RuleOverlock  = "comm-overlock"
	RuleUnderlock = "comm-underlock"
	RuleExtract   = "comm-extract"
)

// Report describes what the analysis covered, so tests can pin coverage
// (a clean run that bound no modes and checked no matrix would be
// vacuous, not clean).
type Report struct {
	// Classes maps each commutativity class to its bound mode constant
	// name (//comm:mode).
	Classes map[string]string
	// Ops maps annotated operation functions ("Type.Func" or "Func") to
	// their class (//comm:op).
	Ops map[string]string
	// Matrices lists the spec files (//comm:matrix arguments) whose
	// derived matrices were compared, in source order.
	Matrices []string
	// Proofs counts the prover-discharged obligations backing the
	// compared matrices.
	Proofs int
	// Entries counts the ordered matrix entries compared against the
	// derived relation.
	Entries int
	// AcquireSites counts the locking.Manager.Acquire call sites checked
	// inside annotated ops.
	AcquireSites int
}

// verbs is the //comm:* verb table.
var verbs = map[string]analysis.Verb{ //lint:allow noglobalstate immutable lookup table
	"op":     {Min: 1, Max: 1, Usage: "//comm:%[1]s wants exactly one class argument", Where: unattached},
	"mode":   {Min: 1, Max: 1, Usage: "//comm:%[1]s wants exactly one class argument", Where: unattached},
	"matrix": {Min: 1, Max: 1, Usage: "//comm:%[1]s wants exactly one spec-file argument", Where: unattached},
	"ignore": {Kind: analysis.Suppresses, Min: 1, Max: -1, Usage: "//comm:%[1]s needs a reason"},
}

const unattached = "unattached //comm:%[1]s directive (op goes in a function doc, mode trails a Mode constant, matrix goes in the matrix var's doc)"

// Run analyzes the loaded packages and returns the coverage report and
// the surviving diagnostics (with //comm:ignore suppressions applied),
// sorted by position. Deriving the reference matrix elaborates the spec
// with the real prover, so a clean run certifies both that the proofs
// discharge and that the Go matrix matches them.
func Run(pkgs []*analysis.Package) (*Report, []analysis.Diagnostic) {
	x := newExtractor(pkgs)
	rep := x.extract()
	return rep, x.Diagnostics()
}
