package tpc

import (
	"math/rand"
	"testing"

	"speccat/internal/sim"
	"speccat/internal/simnet"
)

func TestFig32TableSelfConsistent(t *testing.T) {
	table := Fig32Table()
	if len(table) < 20 {
		t.Fatalf("table has %d entries", len(table))
	}
	seen := map[Transition]bool{}
	for _, tr := range table {
		if seen[tr] {
			t.Errorf("duplicate table entry %+v", tr)
		}
		seen[tr] = true
		if !Allowed(tr) {
			t.Errorf("Allowed rejects its own table entry %+v", tr)
		}
	}
	// Decided states are absorbing: no transitions out of a or c.
	for _, tr := range table {
		if tr.From == StateAborted || tr.From == StateCommitted {
			t.Errorf("transition out of a decided state: %+v", tr)
		}
	}
	if Allowed(Transition{RoleCohort, StateCommitted, StateAborted, CauseMessage}) {
		t.Error("commit→abort must never be allowed")
	}
}

// traceCollector gathers transitions from a whole group.
type traceCollector struct {
	got []Transition
}

func (tc *traceCollector) hook() TraceFunc {
	return func(txn string, tr Transition) { tc.got = append(tc.got, tr) }
}

// TestEngineRefinesFig32 drives randomized runs — happy paths, no-votes,
// crashes of every site at random times, recoveries — and checks that
// every transition the engines take is an arrow of Fig. 3.2.
func TestEngineRefinesFig32(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		_ = r.Intn(3) // once drew the naive timeouts switch; kept so each seed's later draws stay put
		g := mustGroup(t, seed, n, Config{})
		tc := &traceCollector{}
		g.Coordinator.Trace = tc.hook()
		for _, h := range g.Cohorts {
			h.Trace = tc.hook()
		}
		// Random no-voter sometimes.
		if r.Intn(4) == 0 {
			veto := g.CohortIDs[r.Intn(n)]
			g.Cohorts[veto].Vote = func(string) bool { return false }
		}
		// Random single crash, sometimes with recovery.
		victim := simnet.NodeID(0)
		if r.Intn(3) != 0 {
			idx := r.Intn(n + 1)
			victim = g.CoordID
			if idx > 0 {
				victim = g.CohortIDs[idx-1]
			}
			at := sim.Time(r.Intn(140))
			g.Net.Scheduler().At(at, func() { _ = g.Net.Crash(victim) })
		}
		if err := g.Coordinator.Begin("t"); err != nil {
			t.Fatal(err)
		}
		g.Net.Scheduler().Run(0)
		if victim != 0 && r.Intn(2) == 0 {
			_ = g.Net.Recover(victim)
			if victim == g.CoordID {
				g.Coordinator.RecoverAll()
			} else {
				g.Cohorts[victim].RecoverAll()
			}
			g.Net.Scheduler().Run(0)
		}
		for _, tr := range tc.got {
			if !Allowed(tr) {
				t.Fatalf("seed %d: engine took a transition outside Fig. 3.2: %s %s→%s (%s)",
					seed, tr.Role, tr.From, tr.To, tr.Cause)
			}
		}
		if len(tc.got) == 0 {
			t.Fatalf("seed %d: no transitions observed", seed)
		}
	}
}

// TestTraceCausesMeaningful: a clean commit run uses only message-cause
// transitions; a coordinator-crash run includes termination or timeout
// causes.
func TestTraceCausesMeaningful(t *testing.T) {
	g := mustGroup(t, 99, 3, Config{})
	tc := &traceCollector{}
	g.Coordinator.Trace = tc.hook()
	for _, h := range g.Cohorts {
		h.Trace = tc.hook()
	}
	if err := g.Coordinator.Begin("t"); err != nil {
		t.Fatal(err)
	}
	g.Net.Scheduler().Run(0)
	for _, tr := range tc.got {
		if tr.Cause != CauseMessage {
			t.Fatalf("clean run used %s transition %+v", tr.Cause, tr)
		}
	}

	g2 := mustGroup(t, 100, 3, Config{})
	tc2 := &traceCollector{}
	for _, h := range g2.Cohorts {
		h.Trace = tc2.hook()
	}
	if err := g2.Coordinator.Begin("t"); err != nil {
		t.Fatal(err)
	}
	g2.Net.Scheduler().RunUntil(1)
	_ = g2.Net.Crash(g2.CoordID)
	g2.Net.Scheduler().Run(0)
	sawTermination := false
	for _, tr := range tc2.got {
		if tr.Cause == CauseTerminate {
			sawTermination = true
		}
	}
	if !sawTermination {
		t.Fatal("coordinator-crash run shows no termination transitions")
	}
}
