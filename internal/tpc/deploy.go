package tpc

import (
	"errors"
	"fmt"

	"speccat/internal/rt"
)

// Deployment is the runtime-agnostic wiring of one commit group: the
// coordinator and cohort engines installed over any rt.Transport. The
// deterministic simulator harness (Group, harness.go) and the
// real-goroutine conformance runs (internal/conformance, E16) both build
// on it — the same engine code, two runtimes, which is the point of the
// rt boundary.
type Deployment struct {
	Net         rt.Transport
	Coordinator *Coordinator
	Cohorts     map[rt.NodeID]*Cohort
	CoordID     rt.NodeID
	CohortIDs   []rt.NodeID
}

// ErrWire is wrapped when a group's message handlers cannot be installed.
var ErrWire = errors.New("tpc: wire handler")

// DeployCoordinator registers and wires only the coordinator engine —
// the per-process deployment a distributed runtime needs, where each
// transport hosts exactly one node (internal/rt/tcp) and the cohorts
// live in other processes.
func DeployCoordinator(net rt.Transport, coordID rt.NodeID, cohortIDs []rt.NodeID, cfg Config) (*Coordinator, error) {
	net.AddNode(coordID, nil)
	c := NewCoordinator(net, coordID, cohortIDs, cfg)
	if err := net.SetHandler(coordID, func(m rt.Message) { c.HandleMessage(m) }); err != nil {
		return nil, fmt.Errorf("%w: coordinator %d: %w", ErrWire, coordID, err)
	}
	return c, nil
}

// DeployCohort registers and wires only one cohort engine (see
// DeployCoordinator).
func DeployCohort(net rt.Transport, id, coordID rt.NodeID, cfg Config) (*Cohort, error) {
	net.AddNode(id, nil)
	h := NewCohort(net, id, coordID, cfg)
	if err := net.SetHandler(id, func(m rt.Message) { h.HandleMessage(m) }); err != nil {
		return nil, fmt.Errorf("%w: cohort %d: %w", ErrWire, id, err)
	}
	return h, nil
}

// Deploy registers one coordinator node and n cohort nodes on net and
// wires all message handlers. Node IDs are 1 (coordinator) and 2..n+1
// (cohorts), the layout every harness and fault schedule in this
// repository assumes.
func Deploy(net rt.Transport, n int, cfg Config) (*Deployment, error) {
	coordID := rt.NodeID(1)
	var cohortIDs []rt.NodeID
	for i := 2; i <= n+1; i++ {
		cohortIDs = append(cohortIDs, rt.NodeID(i))
	}
	d := &Deployment{Net: net, CoordID: coordID, CohortIDs: cohortIDs, Cohorts: map[rt.NodeID]*Cohort{}}
	var err error
	if d.Coordinator, err = DeployCoordinator(net, coordID, cohortIDs, cfg); err != nil {
		return nil, err
	}
	for _, id := range cohortIDs {
		if d.Cohorts[id], err = DeployCohort(net, id, coordID, cfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}
