package tpc

import (
	"fmt"
	"math/rand"
	"testing"

	"speccat/internal/sim"
	"speccat/internal/simnet"
)

func TestAllYesCommits(t *testing.T) {
	g := mustGroup(t, 1, 3, Config{})
	if err := g.Run("t1"); err != nil {
		t.Fatal(err)
	}
	o := g.Outcome("t1")
	if o.Coordinator != DecisionCommit {
		t.Fatalf("coordinator = %s", o.Coordinator)
	}
	for id, d := range o.Cohorts {
		if d != DecisionCommit {
			t.Fatalf("cohort %d = %s", id, d)
		}
	}
}

func TestAnyNoAborts(t *testing.T) {
	g := mustGroup(t, 2, 3, Config{})
	g.Cohorts[3].Vote = func(string) bool { return false }
	if err := g.Run("t1"); err != nil {
		t.Fatal(err)
	}
	o := g.Outcome("t1")
	if o.Coordinator != DecisionAbort {
		t.Fatalf("coordinator = %s", o.Coordinator)
	}
	for id, d := range o.Cohorts {
		if d != DecisionAbort {
			t.Fatalf("cohort %d = %s", id, d)
		}
	}
}

func TestCohortCrashBeforeVoteAborts(t *testing.T) {
	g := mustGroup(t, 3, 3, Config{})
	if err := g.Net.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := g.Run("t1"); err != nil {
		t.Fatal(err)
	}
	o := g.Outcome("t1")
	if o.Coordinator != DecisionAbort {
		t.Fatalf("coordinator = %s, want abort on vote timeout", o.Coordinator)
	}
	if !o.Atomic() {
		t.Fatalf("atomicity violated: %+v", o)
	}
	for _, id := range []simnet.NodeID{2, 4} {
		if o.Cohorts[id] != DecisionAbort {
			t.Fatalf("operational cohort %d = %s", id, o.Cohorts[id])
		}
	}
}

func TestCoordinatorCrashInW1CohortsTerminate(t *testing.T) {
	// Coordinator crashes right after the commit requests go out: cohorts
	// time out in w2 and the termination protocol aborts everywhere —
	// non-blocking. BeginWith does not force w1 under 3PC, so the
	// coordinator recovers recordless and decides nothing; had a sync
	// covered w1, recovery takes the failure transition w1→a. Either way
	// nobody disagrees.
	for name, syncedW1 := range map[string]bool{"unsynced w1": false, "synced w1": true} {
		t.Run(name, func(t *testing.T) {
			g := mustGroup(t, 4, 3, Config{})
			if err := g.Coordinator.Begin("t1"); err != nil {
				t.Fatal(err)
			}
			if syncedW1 {
				st, err := g.Net.Store(g.CoordID)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			g.Net.Scheduler().RunUntil(1)
			if err := g.Net.Crash(g.CoordID); err != nil {
				t.Fatal(err)
			}
			g.Net.Scheduler().Run(0)
			for id, h := range g.Cohorts {
				if h.Decision("t1") != DecisionAbort {
					t.Fatalf("cohort %d = %s, want abort", id, h.Decision("t1"))
				}
			}
			if err := g.Net.Recover(g.CoordID); err != nil {
				t.Fatal(err)
			}
			got, err := g.Coordinator.RecoverAll()
			if err != nil {
				t.Fatal(err)
			}
			want := DecisionNone
			if syncedW1 {
				want = DecisionAbort
			}
			if d, found := got["t1"]; d != want || found != syncedW1 {
				t.Fatalf("recovered coordinator decided %s (on record: %v), want %s", d, found, want)
			}
		})
	}
}

func TestCoordinatorCrashAfterPrepareCohortsCommit(t *testing.T) {
	// Crash the coordinator after every cohort acked (it is in p1 about
	// to commit): cohorts are all in p2; termination must COMMIT, and the
	// recovering coordinator (failure transition p1→commit) agrees.
	g := mustGroup(t, 5, 3, Config{})
	if err := g.Coordinator.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	// Let phase 1 and the prepare fan-out complete; crash before the
	// commit fan-out by intercepting the moment the coordinator state
	// becomes prepared and acks are about to arrive.
	sched := g.Net.Scheduler()
	crashed := false
	for i := 0; i < 100000 && !crashed; i++ {
		if !sched.Step() {
			break
		}
		if g.Coordinator.StateOf("t1") == StatePrepared {
			allPrepared := true
			for _, h := range g.Cohorts {
				if h.StateOf("t1") != StatePrepared {
					allPrepared = false
				}
			}
			if allPrepared {
				if err := g.Net.Crash(g.CoordID); err != nil {
					t.Fatal(err)
				}
				crashed = true
			}
		}
	}
	if !crashed {
		t.Fatal("never reached the all-prepared point")
	}
	sched.Run(0)
	for id, h := range g.Cohorts {
		if h.Decision("t1") != DecisionCommit {
			t.Fatalf("cohort %d = %s, want commit", id, h.Decision("t1"))
		}
	}
	if err := g.Net.Recover(g.CoordID); err != nil {
		t.Fatal(err)
	}
	got, err := g.Coordinator.RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if got["t1"] != DecisionCommit {
		t.Fatalf("recovered coordinator decided %s, want commit", got["t1"])
	}
}

func TestCohortCrashAfterVoteThenRecovers(t *testing.T) {
	// A cohort crashes in w2 (after voting yes, before prepare arrives);
	// the coordinator times out in p1 and aborts; the crashed cohort's
	// failure transition from w2 also aborts on recovery: consistent.
	g := mustGroup(t, 6, 3, Config{})
	if err := g.Coordinator.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	sched := g.Net.Scheduler()
	crashed := false
	for i := 0; i < 100000 && !crashed; i++ {
		if !sched.Step() {
			break
		}
		if g.Cohorts[3].StateOf("t1") == StateWait {
			if err := g.Net.Crash(3); err != nil {
				t.Fatal(err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("cohort never reached w2")
	}
	sched.Run(0)
	o := g.Outcome("t1")
	if !o.Atomic() {
		t.Fatalf("atomicity violated: %+v", o)
	}
	if err := g.Net.Recover(3); err != nil {
		t.Fatal(err)
	}
	rec, err := g.Cohorts[3].RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if rec["t1"] == DecisionNone {
		t.Fatal("recovered cohort undecided")
	}
	// All decided outcomes across the group must agree.
	o = g.Outcome("t1")
	if !o.Atomic() {
		t.Fatalf("post-recovery atomicity violated: %+v", o)
	}
}

func TestNonBlockingSingleFailureAlwaysDecides(t *testing.T) {
	// Sweep the crash time of the coordinator across the whole protocol
	// run; in every case all operational sites must decide (non-blocking)
	// and agree (atomicity). This is the heart of E7's dynamic check.
	for crashAt := sim.Time(0); crashAt <= 120; crashAt += 3 {
		g := mustGroup(t, 7, 3, Config{})
		if err := g.Coordinator.Begin("t1"); err != nil {
			t.Fatal(err)
		}
		g.Net.Scheduler().RunUntil(crashAt)
		_ = g.Net.Crash(g.CoordID)
		g.Net.Scheduler().Run(0)
		if !g.AllDecided("t1", map[simnet.NodeID]bool{g.CoordID: true}) {
			t.Fatalf("crashAt=%d: some operational cohort is blocked", crashAt)
		}
		o := g.Outcome("t1")
		if !o.Atomic() {
			t.Fatalf("crashAt=%d: atomicity violated: %+v", crashAt, o)
		}
		// The recovered coordinator must agree with the cohorts.
		_ = g.Net.Recover(g.CoordID)
		g.Coordinator.RecoverAll()
		g.Net.Scheduler().Run(0)
		o = g.Outcome("t1")
		if !o.Atomic() {
			t.Fatalf("crashAt=%d: post-recovery atomicity violated: %+v", crashAt, o)
		}
	}
}

func TestTwoPCBlocksOnCoordinatorCrash(t *testing.T) {
	// The comparison experiment: under 2PC, cohorts that voted yes are
	// stuck once the coordinator dies — they never decide until it
	// recovers.
	g := mustGroup(t, 8, 3, Config{Protocol: TwoPhase})
	if err := g.Coordinator.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	sched := g.Net.Scheduler()
	// Crash the coordinator once every cohort has voted (cohorts in w2).
	crashed := false
	for i := 0; i < 100000 && !crashed; i++ {
		if !sched.Step() {
			break
		}
		allWait := true
		for _, h := range g.Cohorts {
			if h.StateOf("t1") != StateWait {
				allWait = false
			}
		}
		if allWait {
			if err := g.Net.Crash(g.CoordID); err != nil {
				t.Fatal(err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("never reached all-voted point")
	}
	sched.RunUntil(sched.Now() + 500)
	blockedCount := 0
	for id, h := range g.Cohorts {
		if h.Decision("t1") != DecisionNone {
			t.Fatalf("2PC cohort %d decided %s without coordinator", id, h.Decision("t1"))
		}
		if b, _ := h.Blocked("t1"); b {
			blockedCount++
		}
	}
	if blockedCount == 0 {
		t.Fatal("no cohort reported blocking")
	}
	// Coordinator recovery unblocks everyone with a consistent outcome.
	if err := g.Net.Recover(g.CoordID); err != nil {
		t.Fatal(err)
	}
	g.Coordinator.RecoverAll()
	sched.Run(0)
	o := g.Outcome("t1")
	if !o.Atomic() {
		t.Fatalf("2PC post-recovery atomicity violated: %+v", o)
	}
	for id, h := range g.Cohorts {
		if h.Decision("t1") == DecisionNone {
			t.Fatalf("cohort %d still undecided after recovery", id)
		}
	}
}

func TestThreePCNeverBlocksWhereTwoPCBlocks(t *testing.T) {
	// Same crash point, both protocols: 3PC decides, 2PC does not.
	run := func(p Protocol) (decided bool) {
		g := mustGroup(t, 9, 3, Config{Protocol: p})
		if err := g.Coordinator.Begin("t1"); err != nil {
			t.Fatal(err)
		}
		sched := g.Net.Scheduler()
		for i := 0; i < 100000; i++ {
			if !sched.Step() {
				break
			}
			allWait := true
			for _, h := range g.Cohorts {
				if h.StateOf("t1") != StateWait {
					allWait = false
				}
			}
			if allWait {
				_ = g.Net.Crash(g.CoordID)
				break
			}
		}
		sched.RunUntil(sched.Now() + 1000)
		return g.AllDecided("t1", map[simnet.NodeID]bool{g.CoordID: true})
	}
	if !run(ThreePhase) {
		t.Fatal("3PC blocked")
	}
	if run(TwoPhase) {
		t.Fatal("2PC unexpectedly decided")
	}
}

func TestMultipleConcurrentTransactions(t *testing.T) {
	g := mustGroup(t, 10, 3, Config{})
	g.Cohorts[2].Vote = func(txn string) bool { return txn != "tB" }
	for _, txn := range []string{"tA", "tB", "tC"} {
		if err := g.Coordinator.Begin(txn); err != nil {
			t.Fatal(err)
		}
	}
	g.Net.Scheduler().Run(0)
	if d := g.Coordinator.Decision("tA"); d != DecisionCommit {
		t.Fatalf("tA = %s", d)
	}
	if d := g.Coordinator.Decision("tB"); d != DecisionAbort {
		t.Fatalf("tB = %s", d)
	}
	if d := g.Coordinator.Decision("tC"); d != DecisionCommit {
		t.Fatalf("tC = %s", d)
	}
	for _, txn := range []string{"tA", "tB", "tC"} {
		if o := g.Outcome(txn); !o.Atomic() {
			t.Fatalf("%s not atomic: %+v", txn, o)
		}
	}
}

// TestRandomCrashScheduleProperty sweeps random single-site crash plans:
// atomicity must hold in every run, and with at most one failure every
// operational site must decide.
func TestRandomCrashScheduleProperty(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		g := mustGroup(t, seed, n, Config{})
		victimIdx := r.Intn(n + 1)
		victim := g.CoordID
		if victimIdx > 0 {
			victim = g.CohortIDs[victimIdx-1]
		}
		crashAt := sim.Time(r.Intn(150))
		if err := g.Coordinator.Begin("t"); err != nil {
			t.Fatal(err)
		}
		g.Net.Scheduler().At(crashAt, func() { _ = g.Net.Crash(victim) })
		g.Net.Scheduler().Run(0)

		o := g.Outcome("t")
		if !o.Atomic() {
			t.Fatalf("seed %d: atomicity violated (victim %d at %d): %+v", seed, victim, crashAt, o)
		}
		if !g.AllDecided("t", map[simnet.NodeID]bool{victim: true}) {
			t.Fatalf("seed %d: blocking with single failure (victim %d at %d)", seed, victim, crashAt)
		}
		// Recover the victim; its independent-recovery decision must not
		// break atomicity.
		_ = g.Net.Recover(victim)
		if victim == g.CoordID {
			g.Coordinator.RecoverAll()
		} else {
			g.Cohorts[victim].RecoverAll()
		}
		g.Net.Scheduler().Run(0)
		o = g.Outcome("t")
		if !o.Atomic() {
			t.Fatalf("seed %d: post-recovery atomicity violated: %+v", seed, o)
		}
	}
}

func TestStateStringsAndHelpers(t *testing.T) {
	if StateInitial.String() != "q" || StatePrepared.String() != "p" {
		t.Fatal("state strings wrong")
	}
	if !StatePrepared.Committable() || StateWait.Committable() {
		t.Fatal("committable classification wrong")
	}
	if DecisionCommit.String() != "commit" || DecisionNone.String() != "none" {
		t.Fatal("decision strings wrong")
	}
	if ThreePhase.String() != "3PC" || TwoPhase.String() != "2PC" {
		t.Fatal("protocol strings wrong")
	}
	if txn, ok := txnOfStateKey("tpc/t1/state"); !ok || txn != "t1" {
		t.Fatal("txnOfStateKey failed")
	}
	if _, ok := txnOfStateKey("other/key"); ok {
		t.Fatal("txnOfStateKey accepted junk")
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Coordinator: DecisionCommit, Cohorts: map[simnet.NodeID]Decision{2: DecisionCommit}}
	if !o.Atomic() {
		t.Fatal("commit-only outcome must be atomic")
	}
	o.Cohorts[3] = DecisionAbort
	if o.Atomic() {
		t.Fatal("mixed outcome must not be atomic")
	}
	_ = fmt.Sprintf("%+v", o)
}
