package tpc

import (
	"testing"

	"speccat/internal/sim"
)

// TestNaiveTimeoutsSweepStaysAtomicInEngine crashes the coordinator at
// every fifth tick of one transaction. In the tpc engine alone a site's
// message fan-out is one atomic event (the thesis's assumption 3), so every
// crash point leaves the outcome atomic. The naive timeouts mutant
// (internal/mutant), whose cohorts take Fig. 3.2's bare timeout arrows
// instead of terminating, passes too: this is its spare gate, the engine's
// copy of the model checker's lockstep verdict — the split needs a crash
// between two sends of one fan-out, which the explorer stages.
func TestNaiveTimeoutsSweepStaysAtomicInEngine(t *testing.T) {
	for crashAt := sim.Time(0); crashAt <= 120; crashAt += 5 {
		g := mustGroup(t, 23, 3, Config{})
		if err := g.Coordinator.Begin("t"); err != nil {
			t.Fatal(err)
		}
		g.Net.Scheduler().RunUntil(crashAt)
		_ = g.Net.Crash(g.CoordID)
		g.Net.Scheduler().Run(0)
		o := g.Outcome("t")
		if !o.Atomic() {
			t.Fatalf("crashAt=%d: engine violated atomicity: %+v", crashAt, o)
		}
	}
}
