package tpc

import (
	"testing"

	"speccat/internal/sim"
)

// TestNaiveTimeoutsAbortInW2 exercises the bare Fig. 3.2 timeout
// transitions in the executable engine: a coordinator crash in w1 makes
// every cohort abort via the w2 timeout transition, no termination
// protocol involved.
func TestNaiveTimeoutsAbortInW2(t *testing.T) {
	g := mustGroup(t, 21, 3, Config{NaiveTimeouts: true})
	if err := g.Coordinator.Begin("t"); err != nil {
		t.Fatal(err)
	}
	g.Net.Scheduler().RunUntil(1)
	if err := g.Net.Crash(g.CoordID); err != nil {
		t.Fatal(err)
	}
	g.Net.Scheduler().Run(0)
	for id, h := range g.Cohorts {
		if h.Decision("t") != DecisionAbort {
			t.Fatalf("cohort %d = %s, want abort", id, h.Decision("t"))
		}
	}
}

// TestNaiveTimeoutsCommitInP2: crash the coordinator after all cohorts
// prepared — p2 timeout transitions commit, consistent with the
// coordinator's p1 failure transition.
func TestNaiveTimeoutsCommitInP2(t *testing.T) {
	g := mustGroup(t, 22, 3, Config{NaiveTimeouts: true})
	if err := g.Coordinator.Begin("t"); err != nil {
		t.Fatal(err)
	}
	sched := g.Net.Scheduler()
	crashed := false
	for i := 0; i < 100000 && !crashed; i++ {
		if !sched.Step() {
			break
		}
		all := true
		for _, h := range g.Cohorts {
			if h.StateOf("t") != StatePrepared {
				all = false
			}
		}
		if all {
			if err := g.Net.Crash(g.CoordID); err != nil {
				t.Fatal(err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("never reached all-prepared")
	}
	sched.Run(0)
	for id, h := range g.Cohorts {
		if h.Decision("t") != DecisionCommit {
			t.Fatalf("cohort %d = %s, want commit", id, h.Decision("t"))
		}
	}
	if err := g.Net.Recover(g.CoordID); err != nil {
		t.Fatal(err)
	}
	if got, err := g.Coordinator.RecoverAll(); err != nil || got["t"] != DecisionCommit {
		t.Fatalf("recovered coordinator = %s, err %v", got["t"], err)
	}
}

// TestNaiveTimeoutsSweepStaysAtomicInEngine: in the executable engine a
// site's message fan-out is one atomic event (the thesis's assumption 3),
// so — matching the model checker's lockstep verdict — the naive
// transitions never violate atomicity here, at any crash point.
func TestNaiveTimeoutsSweepStaysAtomicInEngine(t *testing.T) {
	for crashAt := sim.Time(0); crashAt <= 120; crashAt += 5 {
		g := mustGroup(t, 23, 3, Config{NaiveTimeouts: true})
		if err := g.Coordinator.Begin("t"); err != nil {
			t.Fatal(err)
		}
		g.Net.Scheduler().RunUntil(crashAt)
		_ = g.Net.Crash(g.CoordID)
		g.Net.Scheduler().Run(0)
		o := g.Outcome("t")
		if !o.Atomic() {
			t.Fatalf("crashAt=%d: naive engine violated atomicity: %+v", crashAt, o)
		}
	}
}
