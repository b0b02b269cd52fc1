// Package lockcheck is the seventh static-analysis layer of speccatlint: a
// two-phase-locking dataflow analysis over the transaction engines. The
// serializability argument (Section 3.5.1's strict 2PL building block)
// needs more than a correct lock manager — it needs every CALLER of the
// manager to follow the discipline: grow-then-shrink (no acquisition after
// any release of the same transaction), release everything at transaction
// end on every path, and hold the locks until the decision is durable.
// Acquisition order is free: the manager is no-wait, so a conflicting
// request is refused rather than queued and no waits-for cycle can form.
//
// Analysis roots are the //fsm:handler and //dur:handler dispatch
// functions, the //comm:op-annotated store operations, and //lock:handler
// opt-ins; from each root the same-module call graph is followed, bridging
// interface calls to every implementation in the load.
// Lock events are locking.Manager.Acquire / Release / ReleaseAll calls;
// durable decision points are wal.Log.Commit / Abort; durability waits are
// stable.Store.SyncThen and same-module wrappers that forward a
// continuation parameter to it.
//
// Annotation grammar:
//
//	//lock:handler          in a function's doc: analysis root that is not
//	                        already a handler or annotated store op
//	//lock:ignore <reason>  suppresses all lock findings on its own and the
//	                        next line; reason mandatory
//
// Rules reported:
//
//   - lock-twophase: an Acquire for a transaction whose locks were already
//     released on this path — growing after shrinking, the direct negation
//     of two-phase locking.
//   - lock-leak: a return path of a lock-managing function (one that both
//     acquires and releases directly) on which an acquired lock is not
//     released — strictness demands ReleaseAll on every exit.
//   - lock-hold: an acquisition inside a stable.SyncThen continuation (the
//     growing phase must not extend past a durability wait), or a
//     ReleaseAll before the same transaction's wal commit/abort record in a
//     function that writes one (the decision must be durable before
//     strictness lets the locks go).
//   - lock-extract: malformed, unknown or unbound //lock:* directives, and
//     reasonless suppressions.
package lockcheck

import "speccat/internal/analysis"

// Rule names reported by this layer.
const (
	RuleTwoPhase = "lock-twophase"
	RuleLeak     = "lock-leak"
	RuleHold     = "lock-hold"
	RuleExtract  = "lock-extract"
)

// Report describes what the analysis covered, so tests can pin coverage
// (a clean run over zero acquire sites would be vacuous, not clean).
type Report struct {
	// Roots are the analysis roots (//fsm:handler, //dur:handler, //comm:op
	// and //lock:handler functions), as "Type.Func" names, sorted.
	Roots []string
	// Analyzed counts the functions the flow analysis walked.
	Analyzed int
	// AcquireSites counts the direct locking.Manager.Acquire call sites in
	// analyzed functions; ReleaseSites the Release/ReleaseAll sites.
	AcquireSites int
	ReleaseSites int
	// SyncThenSites counts the stable.Store.SyncThen continuations (direct
	// or via wrappers) whose bodies the lock-hold rule scanned.
	SyncThenSites int
}

// verbs is the //lock:* verb table: //lock:ignore covers every lock rule.
var verbs = map[string]analysis.Verb{ //lint:allow noglobalstate immutable lookup table
	"handler": {Usage: "malformed //lock:%[1]s: want no arguments, got %[2]d"},
	"ignore":  {Kind: analysis.Suppresses, Min: 1, Max: -1, Usage: "//lock:%[1]s requires a reason"},
}

// Run analyzes the loaded packages and returns the coverage report and the
// surviving diagnostics (with //lock:ignore suppressions applied), sorted by position. The run is purely static.
func Run(pkgs []*analysis.Package) (*Report, []analysis.Diagnostic) {
	x := newExtractor(pkgs)
	rep := x.extract()
	return rep, x.Diagnostics()
}
