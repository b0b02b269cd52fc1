// Package fsmcheck is the third static-analysis layer of speccatlint: it
// extracts protocol state machines from the Go engines and checks them for
// the composition errors the paper's methodology targets — unhandled
// (state, message) pairs, nondeterministic dispatch, dead states and
// message kinds, partial stable-storage codecs — and cross-validates the
// extracted commit machines against the abstract transition relation of
// internal/mc, so the executable implementation and the model-checked
// abstraction cannot drift apart silently.
//
// Extraction is guided by lightweight comment annotations:
//
//	//fsm:state <machine> <alias>      on a state constant; alias is the
//	                                   abstract model's letter (q, w, ...)
//	//fsm:msg <machine> <role>         on a wire-kind constant; role names
//	                                   the handler that must consume it
//	//fsm:handler <machine> <role>     in the doc of the role's handler
//	//fsm:emit <machine> <role>        in the doc of the transition-trace
//	                                   method whose call sites are edges
//	//fsm:from <a1,a2,...>             trailing an emit call whose from
//	//fsm:to <a1,a2,...>               (or to) argument is dynamic
//	//fsm:encode <machine>             in the doc of a constant->string
//	                                   stable-storage encoder
//	//fsm:decode <machine>             in the doc of its inverse
//	//fsm:model-extra <machine> <role> <f>-><t> <reason>
//	                                   justifies an extracted edge outside
//	                                   the abstract model's relation
//	//fsm:ignore <reason>              suppresses fsm findings on its own
//	                                   and the next line; reason mandatory
//
// Rules reported: fsm-exhaustive (declared kind not consumed), fsm-silent-drop
// (message dropped without accounting), fsm-determinism (overlapping
// dispatch), fsm-dead (state or kind declared but unreachable), fsm-codec
// (encode/decode pair not total over the constant set), fsm-extract
// (malformed annotation or unresolvable edge), fsm-model (extracted edge
// outside the model relation, or a stale justification).
package fsmcheck

import (
	"fmt"
	"go/token"
	"sort"

	"speccat/internal/analysis"
)

// Rule names reported by this layer.
const (
	RuleExhaustive  = "fsm-exhaustive"
	RuleSilentDrop  = "fsm-silent-drop"
	RuleDeterminism = "fsm-determinism"
	RuleDead        = "fsm-dead"
	RuleCodec       = "fsm-codec"
	RuleExtract     = "fsm-extract"
	RuleModel       = "fsm-model"
)

// Report is the extracted machine set.
type Report struct {
	// Machines indexes the extracted machines by name.
	Machines map[string]*Machine
}

// MachineNames returns the machine names in sorted order.
func (r *Report) MachineNames() []string {
	names := make([]string, 0, len(r.Machines))
	for n := range r.Machines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Machine is one extracted protocol machine.
type Machine struct {
	Name string
	// States are the //fsm:state constants in declaration order.
	States []*StateDecl
	// Kinds are the //fsm:msg constants in declaration order.
	Kinds []*KindDecl
	// Handlers are the //fsm:handler functions.
	Handlers []*Handler
	// Edges is the deduplicated, sorted transition set per role.
	Edges []Edge
	// Extras are the checked-in //fsm:model-extra justifications.
	Extras []*ModelExtra
	// Codecs are the matched //fsm:encode + //fsm:decode pairs.
	Codecs []*Codec
	// ModelEdges, when non-nil, is the abstract relation the machine was
	// cross-validated against (populated by CrossValidate).
	ModelEdges []Edge
}

// StateDecl is one annotated state constant.
type StateDecl struct {
	// Name is the Go constant name.
	Name string
	// Alias is the abstract model's state letter.
	Alias string
	Pos   token.Position
}

// KindDecl is one annotated wire-kind constant.
type KindDecl struct {
	// Name is the Go constant name.
	Name string
	// Value is the wire string.
	Value string
	// Role names the handler that must consume the kind.
	Role string
	Pos  token.Position
	// Produced records whether any call site sends the kind.
	Produced bool
	// ConsumedBy lists the handler functions casing the kind.
	ConsumedBy []string
}

// Handler is one annotated message handler.
type Handler struct {
	Machine  string
	Role     string
	FuncName string
	Pos      token.Position
	// Terminal marks a handler with no results: it is the last consumer on
	// its node, so unknown traffic must be accounted, not declined.
	Terminal bool
}

// Edge is one extracted or model transition, in alias letters.
type Edge struct {
	Role string
	From string
	To   string
	// Pos is the emit call site the edge was extracted from (zero for
	// model edges).
	Pos token.Position
	// Source describes how the edge was resolved: "const", "annotated" or
	// "guard".
	Source string
}

// key identifies the edge ignoring provenance.
func (e Edge) key() [3]string { return [3]string{e.Role, e.From, e.To} }

// String renders the edge as "role: f->t".
func (e Edge) String() string { return fmt.Sprintf("%s: %s->%s", e.Role, e.From, e.To) }

// ModelExtra is one checked-in justification for an extracted edge outside
// the abstract model's relation.
type ModelExtra struct {
	Machine string
	Role    string
	From    string
	To      string
	Reason  string
	Pos     token.Position
	// used is set during cross-validation when the justified edge was
	// actually extracted and actually absent from the model.
	used bool
}

// Codec is one encode/decode pair over a constant set.
type Codec struct {
	Machine string
	// TypeName is the Go type whose constants the pair encodes.
	TypeName  string
	EncodePos token.Position
	DecodePos token.Position
	// Consts are the constant names of the type, in declaration order.
	Consts []string
	// Encodes maps constant name -> wire string.
	Encodes map[string]string
	// Decodes maps wire string -> constant name.
	Decodes map[string]string
}

// verbs is the //fsm:* verb table.
var verbs = map[string]analysis.Verb{ //lint:allow noglobalstate immutable lookup table
	"state":       {Min: 2, Max: 2, Usage: "//fsm:%[1]s wants <machine> <alias>", Where: floating},
	"msg":         {Min: 2, Max: 2, Usage: "//fsm:%[1]s wants <machine> <role>", Where: floating},
	"handler":     {Min: 2, Max: 2, Usage: "//fsm:%[1]s wants <machine> <role>", Where: floating},
	"emit":        {Min: 2, Max: 2, Usage: "//fsm:%[1]s wants <machine> <role>", Where: floating},
	"encode":      {Min: 1, Max: 1, Usage: "//fsm:%[1]s wants <machine>", Where: floating},
	"decode":      {Min: 1, Max: 1, Usage: "//fsm:%[1]s wants <machine>", Where: floating},
	"from":        {Kind: analysis.Placed, Min: 1, Max: 1, Usage: "//fsm:%[1]s wants a comma-separated alias list"},
	"to":          {Kind: analysis.Placed, Min: 1, Max: 1, Usage: "//fsm:%[1]s wants a comma-separated alias list"},
	"model-extra": {Kind: analysis.Placed, Min: 4, Max: -1, Usage: "//fsm:%[1]s wants <machine> <role> <from>-><to> <reason>"},
	"ignore":      {Kind: analysis.Suppresses, Min: 1, Max: -1, Usage: "//fsm:%[1]s needs a reason"},
}

const floating = "//fsm:%[1]s is not attached to a declaration (use a const line comment or a function doc comment)"

// Run extracts the machines from the loaded packages and checks them,
// returning the report and the surviving diagnostics (with //fsm:ignore
// suppressions applied), sorted by position.
func Run(pkgs []*analysis.Package) (*Report, []analysis.Diagnostic) {
	x := newExtractor(pkgs)
	rep := x.extract()
	x.check(rep)
	for _, name := range rep.MachineNames() {
		x.crossValidate(rep.Machines[name])
	}
	return rep, x.Diagnostics()
}
