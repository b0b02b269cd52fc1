package mc

import (
	"fmt"
	"sort"
)

// This file exports the abstract commit model's *site-local* transition
// relation as data. Each global step of the model changes the FSM state of
// zero or more sites; projecting those changes per site yields the edge
// set of the coordinator and cohort automata actually reachable in the
// model. internal/analysis/fsmcheck cross-validates the machines it
// extracts from the Go engines against this relation, so the executable
// implementation and the model-checked abstraction cannot drift
// independently: an implementation transition absent from the model (or a
// model transition silently removed) becomes a lint finding.

// Edge role names.
const (
	EdgeRoleCoordinator = "coordinator"
	EdgeRoleCohort      = "cohort"
)

// Edge is one site-local transition of the abstract commit model. From and
// To use the model's state letters: 'q', 'w', 'p', 'a', 'c'.
type Edge struct {
	Role string
	From byte
	To   byte
}

// String renders the edge as "role: f->t".
func (e Edge) String() string {
	return fmt.Sprintf("%s: %c->%c", e.Role, e.From, e.To)
}

// edgeRecorder is the commit model as a System whose Next also projects
// each step onto the sites whose FSM state it changes.
type edgeRecorder struct {
	*model
	set map[Edge]bool
}

func (r edgeRecorder) Next(cur string) []string {
	succs := r.model.Next(cur)
	s := decode(cur, r.n)
	for _, enc := range succs {
		t := decode(enc, r.n)
		if t.coord != s.coord {
			r.set[Edge{Role: EdgeRoleCoordinator, From: s.coord, To: t.coord}] = true
		}
		for i := 0; i < r.n; i++ {
			if t.cohort[i] != s.cohort[i] {
				r.set[Edge{Role: EdgeRoleCohort, From: s.cohort[i], To: t.cohort[i]}] = true
			}
		}
	}
	return succs
}

// Edges enumerates the site-local transitions reachable in the model with
// the given variant, cohort count, crash budget and options, by exploring
// the global state space (Explore, under its default state bound) and
// projecting every step. The result is sorted and duplicate-free; it is
// the stable edge-enumeration API fsmcheck's cross-validation consumes.
func Edges(v Variant, n, f int, opts ModelOptions) ([]Edge, error) {
	set := map[Edge]bool{}
	rec := edgeRecorder{model: &model{variant: v, n: n, f: f, opts: opts}, set: set}
	if _, err := Explore(rec, nil, Options{}); err != nil {
		return nil, err
	}
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out, nil
}
