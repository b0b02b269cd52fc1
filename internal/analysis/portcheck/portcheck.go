// Package portcheck is the fifth static-analysis layer of speccatlint: a
// runtime-boundary and state-confinement analysis that mechanically gates
// the port of the protocol engines off the deterministic simulator. The
// engines were written against internal/sim + internal/simnet, where a
// single-threaded scheduler makes every interleaving safe by construction;
// the rt runtime boundary (internal/rt) re-hosts the same handler code on
// real goroutines (internal/rt/live). portcheck proves the two properties
// that make that re-hosting sound:
//
//   - the engines speak only the rt interfaces (never the simulator's
//     concrete types), so swapping the runtime cannot change behaviour;
//   - each handler's mutable state stays confined to its node's event
//     loop, so the per-node serialization the rt contract guarantees is
//     the only synchronization the engines need.
//
// Scope: packages whose package doc carries //rt:engine. Within them the
// confined role types are the receiver types of //fsm:handler and
// //dur:handler methods, and the analysis walks the engine packages' call
// graph rooted at those handlers (interface calls bridged to their
// engine-package implementations).
//
// Annotation grammar:
//
//	//rt:engine                  in the package doc comment: this package
//	                             is a protocol engine; portcheck applies
//	//rt:guard <kind> <reason>   trailing a struct field: the field is
//	                             safe to touch off the event loop because
//	                             of <kind> (mutex | channel | loop);
//	                             reason mandatory
//
// Rules reported:
//
//	rt-boundary   an //rt:engine package imports internal/sim or
//	              internal/simnet (suppressible per import line for
//	              simulator-harness files), or type-asserts an rt
//	              interface value back to a concrete simulator type
//	              (never suppressible in spirit: stay on the rt
//	              interface instead)
//	rt-confine    confined handler state escapes its event loop: a
//	              reachable function spawns a goroutine referencing the
//	              receiver or protocol state, stores a closure capturing
//	              it into a package-level variable, or returns an
//	              interior pointer (a reference-typed field) of a
//	              confined struct — unless every touched field carries
//	              //rt:guard
//	rt-extract    malformed or unattached //rt:* annotations
//
// Findings are suppressed with the repository-wide convention
// //lint:allow <rule> <reason> on the offending or preceding line;
// malformed allows are reported by the base design-rule layer, not
// re-reported here — they simply never suppress.
//
// The dynamic halves of this layer live elsewhere: experiment E16 runs
// the ported tpc stack on the live adapter and replays the recorded
// trace deterministically, and internal/rt/live's race probe seeds the
// exact goroutine-escape mutation the portbad fixture pins and shows the
// race detector reports it at runtime.
package portcheck

import "speccat/internal/analysis"

// Rule names reported by this layer.
const (
	RuleBoundary = "rt-boundary"
	RuleConfine  = "rt-confine"
	RuleExtract  = "rt-extract"
)

// guardKinds are the accepted //rt:guard mechanisms.
var guardKinds = map[string]bool{"mutex": true, "channel": true, "loop": true} //lint:allow noglobalstate immutable lookup table

// Report describes what the analysis covered, so tests can pin coverage
// (a clean run that saw zero engines would be vacuous, not clean).
type Report struct {
	// Engines are the //rt:engine package import paths, sorted.
	Engines []string
	// Confined are the confined role types as "pkg.Type", sorted.
	Confined []string
	// Roots are the handler analysis roots as "Type.Func", sorted.
	Roots []string
	// Analyzed counts the functions reachable from the roots.
	Analyzed int
	// Guards maps //rt:guard-annotated fields ("Type.field") to their
	// guard kind.
	Guards map[string]string
}

// verbs is the //rt:* verb table, plus the borrowed //lint:allow.
var verbs = map[string]analysis.Verb{ //lint:allow noglobalstate immutable lookup table
	"engine": {
		Usage: "malformed //rt:%[1]s: takes no arguments, got %[2]d",
		Where: "//rt:%[1]s must appear in the package doc comment",
	},
	"guard": {
		Min: 2, Max: -1,
		Usage: "malformed //rt:%[1]s: want //rt:%[1]s <mutex|channel|loop> <reason>",
		Where: "//rt:%[1]s must trail a struct field declaration",
	},
	"lint:allow": {Kind: analysis.Suppresses, Rule: analysis.RuleArg, Min: 2, Max: -1},
}

// Run analyzes the loaded packages and returns the coverage report and
// the surviving diagnostics (reasoned //lint:allow suppressions applied),
// sorted by position.
func Run(pkgs []*analysis.Package) (*Report, []analysis.Diagnostic) {
	x := newExtractor(pkgs)
	rep := x.extract()
	return rep, x.Diagnostics()
}
