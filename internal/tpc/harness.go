package tpc

// The Group harness is the deterministic-simulator face of a commit
// deployment: it owns the concrete simnet.Network so tests, explorers
// and CLIs can crash sites, inject faults and drive the scheduler. The
// engines it wires are runtime-agnostic (see Deploy); only this file
// touches the simulator, under reasoned rt-boundary suppressions.

import (
	"speccat/internal/sim"    //lint:allow rt-boundary sim-harness constructor: the engines speak rt.Transport, this file owns the simulator wiring
	"speccat/internal/simnet" //lint:allow rt-boundary sim-harness constructor: the engines speak rt.Transport, this file owns the simulator wiring
)

// Group is a Deployment on the deterministic simulator: one coordinator
// site and a set of cohort sites on a shared simulated network.
type Group struct {
	*Deployment
	// Net is the deployment's transport as the concrete simulator network.
	Net *simnet.Network
}

// NewGroup builds a network with one coordinator and n cohorts and wires
// all message handlers.
func NewGroup(seed int64, n int, cfg Config) (*Group, error) {
	sched := sim.NewScheduler(seed)
	return NewGroupOn(simnet.New(sched, simnet.DefaultOptions()), n, cfg)
}

// NewGroupOn wires a commit group onto an existing (empty) network,
// letting callers customize network options for failure injection.
func NewGroupOn(net *simnet.Network, n int, cfg Config) (*Group, error) {
	d, err := Deploy(net, n, cfg)
	if err != nil {
		return nil, err
	}
	return &Group{Deployment: d, Net: net}, nil
}

// Run starts txn and drives the simulation to quiescence.
func (g *Group) Run(txn string) error {
	if err := g.Coordinator.Begin(txn); err != nil {
		return err
	}
	g.Net.Scheduler().Run(0)
	return nil
}

// Outcome summarizes one transaction across the group.
type Outcome struct {
	Coordinator Decision
	Cohorts     map[simnet.NodeID]Decision
}

// Outcome collects the group's decisions for txn.
func (g *Group) Outcome(txn string) Outcome {
	o := Outcome{Coordinator: g.Coordinator.Decision(txn), Cohorts: map[simnet.NodeID]Decision{}}
	for id, h := range g.Cohorts {
		o.Cohorts[id] = h.Decision(txn)
	}
	return o
}

// Atomic reports whether the outcome satisfies the atomic-commitment
// safety property over *decided* sites: no site committed while another
// aborted. Undecided (crashed/blocked) sites do not violate atomicity.
func (o Outcome) Atomic() bool {
	commit, abort := o.Coordinator == DecisionCommit, o.Coordinator == DecisionAbort
	for _, d := range o.Cohorts {
		switch d {
		case DecisionCommit:
			commit = true
		case DecisionAbort:
			abort = true
		}
	}
	return !(commit && abort)
}

// AllDecided reports whether every operational site reached a decision
// (the liveness half of non-blocking; callers exclude crashed sites).
func (g *Group) AllDecided(txn string, exclude map[simnet.NodeID]bool) bool {
	if !exclude[g.CoordID] && g.Net.Up(g.CoordID) && g.Coordinator.Decision(txn) == DecisionNone {
		return false
	}
	for id, h := range g.Cohorts {
		if exclude[id] || !g.Net.Up(id) {
			continue
		}
		if h.Decision(txn) == DecisionNone {
			return false
		}
	}
	return true
}
