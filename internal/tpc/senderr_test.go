package tpc

import (
	"errors"
	"testing"

	"speccat/internal/simnet"
)

// TestCoordinatorSendErrorsCounted pins the send-error accounting on the
// coordinator: when the coordinator crashes at the first send of its
// commit fan-out, every send of the fan-out fails with ErrNodeDown, each
// failure increments SendErrors, and the OnSendError hook observes each
// one with its kind and error.
func TestCoordinatorSendErrorsCounted(t *testing.T) {
	g, err := NewGroup(1, 3, Config{Protocol: TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	var hookErrs []error
	g.Coordinator.OnSendError = func(to simnet.NodeID, kind string, err error) {
		if kind != KindCommit {
			t.Errorf("OnSendError kind = %s, want %s", kind, KindCommit)
		}
		hookErrs = append(hookErrs, err)
	}
	crashed := false
	g.Net.OnSend = func(seq uint64, m simnet.Message) simnet.SendFault {
		if !crashed && m.Kind == KindCommit {
			crashed = true
			return simnet.SendFault{CrashSender: true}
		}
		return simnet.SendFault{}
	}
	if err := g.Coordinator.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	g.Net.Scheduler().RunUntil(5000)

	if got := g.Coordinator.SendErrors(); got != len(g.CohortIDs) {
		t.Errorf("SendErrors = %d, want %d (whole commit fan-out fails after the crash)", got, len(g.CohortIDs))
	}
	if len(hookErrs) != g.Coordinator.SendErrors() {
		t.Errorf("hook observed %d errors, counter says %d", len(hookErrs), g.Coordinator.SendErrors())
	}
	for _, err := range hookErrs {
		if !errors.Is(err, simnet.ErrNodeDown) {
			t.Errorf("hook error = %v, want ErrNodeDown", err)
		}
	}
}

// TestCohortSendErrorsCounted pins the same accounting on a cohort: the
// coordinator crashes at its prepare fan-out, the cohorts run the
// termination protocol, and the first cohort to fan out StateReq queries
// is crashed at its first send — its failed queries land in SendErrors
// and the hook.
func TestCohortSendErrorsCounted(t *testing.T) {
	g, err := NewGroup(1, 3, Config{Protocol: ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	hookErrs := map[simnet.NodeID][]error{}
	for id, h := range g.Cohorts {
		id, h := id, h
		h.OnSendError = func(to simnet.NodeID, kind string, err error) {
			hookErrs[id] = append(hookErrs[id], err)
		}
	}
	var sender simnet.NodeID
	prepCrashed, stateCrashed := false, false
	g.Net.OnSend = func(seq uint64, m simnet.Message) simnet.SendFault {
		if !prepCrashed && m.Kind == KindPrepare {
			prepCrashed = true
			return simnet.SendFault{CrashSender: true}
		}
		if !stateCrashed && m.Kind == KindStateReq {
			stateCrashed = true
			sender = m.From
			return simnet.SendFault{CrashSender: true}
		}
		return simnet.SendFault{}
	}
	if err := g.Coordinator.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	g.Net.Scheduler().RunUntil(5000)

	if !stateCrashed {
		t.Fatal("no StateReq fan-out observed; termination protocol never ran")
	}
	h := g.Cohorts[sender]
	if h == nil {
		t.Fatalf("StateReq sender %d is not a cohort", sender)
	}
	if h.SendErrors() == 0 {
		t.Errorf("cohort %d SendErrors = 0, want its failed StateReq sends counted", sender)
	}
	if len(hookErrs[sender]) != h.SendErrors() {
		t.Errorf("hook observed %d errors, counter says %d", len(hookErrs[sender]), h.SendErrors())
	}
	for _, err := range hookErrs[sender] {
		if !errors.Is(err, simnet.ErrNodeDown) {
			t.Errorf("hook error = %v, want ErrNodeDown", err)
		}
	}
}

// TestBeginStopsAtRefusedCommitRequest pins what BeginWith does when the
// network refuses a commit request (here: a participant the network does
// not know): the refusal is counted in SendErrors, the fan-out of commit
// requests stops there, and the refusal is a no vote — the coordinator
// aborts from w1 and announces it to every participant, so the cohort
// that did get a request (and opened whatever the body asked) aborts
// instead of waiting. Begin itself succeeds — its error is only for a
// transaction already begun.
func TestBeginStopsAtRefusedCommitRequest(t *testing.T) {
	g, err := NewGroup(1, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var reqs, aborts []simnet.NodeID
	g.Net.OnSend = func(seq uint64, m simnet.Message) simnet.SendFault {
		switch m.Kind {
		case KindCommitReq:
			reqs = append(reqs, m.To)
		case KindAbort:
			aborts = append(aborts, m.To)
		}
		return simnet.SendFault{}
	}
	const unknown = simnet.NodeID(99)
	if err := g.Coordinator.BeginWith("t1", []simnet.NodeID{2, unknown, 3}, nil); err != nil {
		t.Fatalf("Begin = %v, want nil: a refused request is counted, not returned", err)
	}
	if len(reqs) != 1 || reqs[0] != 2 {
		t.Errorf("commit requests went to %v, want only [2]: the fan-out stops at the refusal", reqs)
	}
	if len(aborts) != 2 || aborts[0] != 2 || aborts[1] != 3 {
		t.Errorf("aborts went to %v, want [2 3]: the refusal is a no vote", aborts)
	}
	if got := g.Coordinator.SendErrors(); got != 2 {
		t.Errorf("SendErrors = %d, want 2 (the request and the abort to %d)", got, unknown)
	}
	if d, ok := g.Coordinator.txns["t1"]; ok || g.Coordinator.Decision("t1") != DecisionAbort {
		t.Errorf("coordinator kept %+v and decided %s, want only the abort", d, g.Coordinator.Decision("t1"))
	}
	g.Net.Scheduler().Run(0)
	if d := g.Cohorts[2].Decision("t1"); d != DecisionAbort {
		t.Errorf("cohort 2, which got the request, decided %s, want abort", d)
	}
	if err := g.Coordinator.Begin("t1"); err == nil {
		t.Error("second Begin of t1 succeeded, want already begun")
	}
}
