package tpc

import (
	"testing"

	"speccat/internal/sim"
	"speccat/internal/simnet" //lint:allow rt-boundary test drives the simulator harness directly
)

// scopedGroup builds the group the participant-scoping tests share.
func scopedGroup(t *testing.T, n int) *Group {
	t.Helper()
	g, err := NewGroup(1, n, Config{Protocol: ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScopedCommitSpansOnlyParticipants: a BeginWith over two of four
// cohorts commits on those two while the untouched cohorts never hear of
// the transaction (their FSMs stay in q with no decision).
func TestScopedCommitSpansOnlyParticipants(t *testing.T) {
	g := scopedGroup(t, 4)
	in := g.CohortIDs[:2]
	out := g.CohortIDs[2:]
	if err := g.Coordinator.BeginWith("t1", in, nil); err != nil {
		t.Fatal(err)
	}
	g.Net.Scheduler().Run(0)
	if d := g.Coordinator.Decision("t1"); d != DecisionCommit {
		t.Fatalf("coordinator decision = %v, want commit", d)
	}
	for _, id := range in {
		if d := g.Cohorts[id].Decision("t1"); d != DecisionCommit {
			t.Errorf("participant %d decision = %v, want commit", id, d)
		}
	}
	for _, id := range out {
		if d := g.Cohorts[id].Decision("t1"); d != DecisionNone {
			t.Errorf("non-participant %d decision = %v, want none", id, d)
		}
		if s := g.Cohorts[id].StateOf("t1"); s != StateInitial {
			t.Errorf("non-participant %d state = %v, want q", id, s)
		}
	}
}

// TestScopedEmptyParticipantsCommitsImmediately: a transaction that
// touched no site commits without any protocol traffic.
func TestScopedEmptyParticipantsCommitsImmediately(t *testing.T) {
	g := scopedGroup(t, 3)
	if err := g.Coordinator.BeginWith("t1", []simnet.NodeID{}, nil); err != nil {
		t.Fatal(err)
	}
	if d := g.Coordinator.Decision("t1"); d != DecisionCommit {
		t.Fatalf("empty-participant decision = %v, want immediate commit", d)
	}
	for id, h := range g.Cohorts {
		if d := h.Decision("t1"); d != DecisionNone {
			t.Errorf("cohort %d decision = %v, want none", id, d)
		}
	}
}

// TestScopedTerminationRunsOverParticipants: the coordinator crashes
// mid-prepare; the scoped participants' termination protocol must reach a
// consistent decision among themselves, without waiting on (or consulting)
// the untouched cohorts.
func TestScopedTerminationRunsOverParticipants(t *testing.T) {
	sched := sim.NewScheduler(7)
	net := simnet.New(sched, simnet.DefaultOptions())
	g, err := NewGroupOn(net, 4, Config{Protocol: ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	in := g.CohortIDs[:3]
	if err := g.Coordinator.BeginWith("t1", in, nil); err != nil {
		t.Fatal(err)
	}
	// Crash the coordinator as soon as it has sent the prepares (its FSM
	// reached p), forcing the cohorts into the termination protocol.
	sched.After(1, func() {
		var crash func()
		crash = func() {
			if g.Coordinator.StateOf("t1") == StatePrepared {
				g.Net.Crash(g.CoordID)
				return
			}
			sched.After(1, crash)
		}
		crash()
	})
	sched.Run(0)

	decided := map[Decision]bool{}
	for _, id := range in {
		d := g.Cohorts[id].Decision("t1")
		if d == DecisionNone {
			t.Errorf("participant %d never decided (termination stalled)", id)
		}
		decided[d] = true
	}
	if decided[DecisionCommit] && decided[DecisionAbort] {
		t.Error("scoped termination split the decision")
	}
	if d := g.Cohorts[g.CohortIDs[3]].Decision("t1"); d != DecisionNone {
		t.Errorf("non-participant decided %v, want none", d)
	}
}

// TestGroupCommitSyncPoints pins the divergence-rule fsync placement on
// the happy 3PC path: the coordinator syncs exactly once (at p1, before
// the prepares), each cohort exactly twice (w2 before its vote, p2 before
// its ack) — and the commit dissemination itself rides on
// recovery-from-p, costing nothing.
func TestGroupCommitSyncPoints(t *testing.T) {
	g, err := NewGroup(3, 3, Config{Protocol: ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run("t1"); err != nil {
		t.Fatal(err)
	}
	if d := g.Coordinator.Decision("t1"); d != DecisionCommit {
		t.Fatalf("decision = %v, want commit", d)
	}
	for _, id := range append([]simnet.NodeID{g.CoordID}, g.CohortIDs...) {
		st, _ := g.Net.Store(id)
		want := 2
		if id == g.CoordID {
			want = 1
		}
		if got := st.Syncs(); got != want {
			t.Errorf("site %d syncs = %d, want %d", id, got, want)
		}
	}
}

// TestGroupCommitCoordinatorCrashUnsyncedPrepared is the divergence the
// mandatory p1 sync prevents, run as a what-if: the coordinator's p
// record is synced before any prepare leaves, so crashing it right after
// the prepares and recovering must re-derive COMMIT — the same outcome
// the cohorts' termination protocol reaches.
func TestGroupCommitCoordinatorCrashUnsyncedPrepared(t *testing.T) {
	sched := sim.NewScheduler(11)
	net := simnet.New(sched, simnet.DefaultOptions())
	g, err := NewGroupOn(net, 3, Config{Protocol: ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Coordinator.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	var crash func()
	crash = func() {
		if g.Coordinator.StateOf("t1") == StatePrepared {
			net.Crash(g.CoordID)
			// Recover well after the cohorts' termination settled.
			sched.After(200, func() {
				_ = net.Recover(g.CoordID)
				g.Coordinator.RecoverAll()
			})
			return
		}
		sched.After(1, crash)
	}
	sched.After(1, crash)
	sched.Run(0)

	// The crash destroyed the coordinator's unsynced batch window — but p
	// was forced before the prepares, so recovery commits.
	if d := g.Coordinator.Decision("t1"); d != DecisionCommit {
		t.Fatalf("recovered coordinator decision = %v, want commit", d)
	}
	o := g.Outcome("t1")
	if !o.Atomic() {
		t.Fatalf("atomicity split: %+v", o)
	}
	for id, d := range o.Cohorts {
		if d != DecisionCommit {
			t.Errorf("cohort %d = %v, want commit", id, d)
		}
	}
}
