package fsmcheck

import (
	"fmt"
	"go/token"
	"sort"

	"speccat/internal/mc"
)

// This file cross-validates extracted machines against the abstract
// transition relations of internal/mc. The invariant is sub-relation
// inclusion: every transition the implementation can emit must exist in
// the model (so the model checker's guarantees cover the code), except for
// edges carrying a checked-in //fsm:model-extra justification. Stale
// justifications — for edges the model does contain, or the sources no
// longer produce — are findings too, so the alias map cannot rot.

// modelRelation returns the abstract per-site relation for a machine, or
// ok=false when no model is registered for it.
func modelRelation(machine string) ([]Edge, bool, error) {
	if machine != "tpc" {
		return nil, false, nil
	}
	// Union over the commit-protocol variants and scheduling modes the
	// model checker explores: the implementation multiplexes 3PC, the
	// naive-timeout ablation and the 2PC baseline behind one engine, so
	// its static edge set is compared against everything the abstraction
	// allows under any of them. Recovery is on — the failure transitions
	// (w->a, p->c on restart) are part of the protocol.
	set := map[[3]string]bool{}
	for _, v := range []mc.Variant{mc.Model3PC, mc.Model3PCNaive, mc.Model2PC} {
		for _, lockstep := range []bool{false, true} {
			edges, err := mc.Edges(v, 2, 2, mc.ModelOptions{Lockstep: lockstep, AllowRecovery: true})
			if err != nil {
				return nil, true, fmt.Errorf("fsmcheck: model relation for %s: %w", machine, err)
			}
			for _, e := range edges {
				set[[3]string{e.Role, string(e.From), string(e.To)}] = true
			}
		}
	}
	out := make([]Edge, 0, len(set))
	for k := range set {
		out = append(out, Edge{Role: k[0], From: k[1], To: k[2]})
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
	return out, true, nil
}

// crossValidate checks one machine's extracted edges for sub-relation
// inclusion in its abstract model, modulo the //fsm:model-extra set.
func (x *extractor) crossValidate(m *Machine) {
	rel, ok, err := modelRelation(m.Name)
	if err != nil {
		x.ReportAt(firstPos(m), RuleModel, "%s", err)
		return
	}
	if !ok {
		return
	}
	m.ModelEdges = rel
	relSet := map[[3]string]bool{}
	for _, e := range rel {
		relSet[e.key()] = true
	}
	extras := map[[3]string]*ModelExtra{}
	for _, ex := range m.Extras {
		extras[[3]string{ex.Role, ex.From, ex.To}] = ex
	}
	for _, e := range m.Edges {
		if relSet[e.key()] {
			continue
		}
		if ex, justified := extras[e.key()]; justified {
			ex.used = true
			continue
		}
		x.ReportAt(e.Pos, RuleModel, "extracted edge %s is not in the abstract model's relation; a legitimate divergence needs a //fsm:model-extra justification", e)
	}
	for _, ex := range m.Extras {
		if ex.used {
			continue
		}
		key := [3]string{ex.Role, ex.From, ex.To}
		reason := "the sources no longer produce that edge"
		if relSet[key] {
			reason = "the model's relation now contains that edge"
		}
		x.ReportAt(ex.Pos, RuleModel, "stale //fsm:model-extra for %s: %s->%s: %s; remove the justification", ex.Role, ex.From, ex.To, reason)
	}
}

// firstPos anchors machine-level findings on the first declared state or
// kind.
func firstPos(m *Machine) token.Position {
	if len(m.States) > 0 {
		return m.States[0].Pos
	}
	if len(m.Kinds) > 0 {
		return m.Kinds[0].Pos
	}
	return token.Position{}
}
