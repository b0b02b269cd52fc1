// Package lockcheck is the seventh static-analysis layer of speccatlint: a
// two-phase-locking and cross-shard lock-order dataflow analysis over the
// transaction engines. The serializability argument (Section 3.5.1's strict
// 2PL building block) needs more than a correct lock manager — it needs
// every CALLER of the manager to follow the discipline: grow-then-shrink
// (no acquisition after any release of the same transaction), release
// everything at transaction end on every path, and — once the store is
// hash-sharded — acquire across shards in one canonical order, because each
// shard's deadlock detector sees only its own waits-for graph and a cycle
// split across two managers is invisible to both (the blind spot pinned by
// kvstore's TestCrossShardDeadlockBlindSpot and witnessed end-to-end by
// experiment E20).
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
//	//lock:ordered <reason> suppresses lock-order findings on its own and
//	                        the next line; reason mandatory
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
//   - lock-order: cross-shard acquisitions out of canonical ascending
//     shard-index order — either consecutive acquisitions with descending
//     constant indices, or a loop whose body acquires through shard-routed
//     managers in iteration order. Either pattern can close a waits-for
//     cycle across managers that no per-shard detector sees.
//   - lock-hold: an acquisition inside a stable.SyncThen continuation (the
//     growing phase must not extend past a durability wait), or a
//     ReleaseAll before the same transaction's wal commit/abort record in a
//     function that writes one (the decision must be durable before
//     strictness lets the locks go).
//   - lock-extract: malformed, unknown or unbound //lock:* directives, and
//     reasonless suppressions.
//
// The lock-order rule's dynamic twin is the lock-wait mutant in
// internal/mutant: sites that wait for a contended lock instead of failing
// the work phase. Over two shard-local managers it stalls the opposed
// workload forever (explore's TestOpposedProgressTwoShards fails on it), while
// the same mutant with ops sorted by ascending shard, and the same mutant
// over one manager per site, pass the gate — see experiment E20.
package lockcheck

import "speccat/internal/analysis"

// Rule names reported by this layer.
const (
	RuleTwoPhase = "lock-twophase"
	RuleLeak     = "lock-leak"
	RuleOrder    = "lock-order"
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
	// RoutedCalls counts the shard-routed acquire-reaching call sites the
	// lock-order rule examined (calls dispatching through a multi-manager
	// type or an interface with a multi-manager implementation).
	RoutedCalls int
	// SyncThenSites counts the stable.Store.SyncThen continuations (direct
	// or via wrappers) whose bodies the lock-hold rule scanned.
	SyncThenSites int
}

// verbs is the //lock:* verb table: //lock:ignore covers every lock rule,
// //lock:ordered the lock-order rule only.
var verbs = map[string]analysis.Verb{ //lint:allow noglobalstate immutable lookup table
	"handler": {Usage: "malformed //lock:%[1]s: want no arguments, got %[2]d"},
	"ignore":  {Kind: analysis.Suppresses, Min: 1, Max: -1, Usage: "//lock:%[1]s requires a reason"},
	"ordered": {Kind: analysis.Suppresses, Rule: RuleOrder, Min: 1, Max: -1, Usage: "//lock:%[1]s requires a reason"},
}

// Run analyzes the loaded packages and returns the coverage report and the
// surviving diagnostics (with //lock:ignore and //lock:ordered
// suppressions applied), sorted by position. The run is purely static.
func Run(pkgs []*analysis.Package) (*Report, []analysis.Diagnostic) {
	x := newExtractor(pkgs)
	rep := x.extract()
	return rep, x.Diagnostics()
}
