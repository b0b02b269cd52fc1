package experiments

import (
	"slices"
	"testing"

	"speccat/internal/tpc"
)

// TestE16LiveConformance runs the ported tpc stack on the real-goroutine
// adapter and replays the recorded trace deterministically. Under
// `go test -race` (the CI race job) this doubles as the dynamic half of
// the port check: four event-loop goroutines exchanging messages with
// zero race reports.
func TestE16LiveConformance(t *testing.T) {
	rows, err := E16LiveConformance()
	if err != nil {
		t.Fatalf("E16: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("E16: got %d rows, want 2 (3PC, 2PC)", len(rows))
	}
	for _, r := range rows {
		if r.Messages == 0 {
			t.Errorf("E16 %s: empty delivery trace", r.Protocol)
		}
		if got := r.Decisions["t-commit"]; got != tpc.DecisionCommit {
			t.Errorf("E16 %s: t-commit decided %v, want commit", r.Protocol, got)
		}
		if got := r.Decisions["t-abort"]; got != tpc.DecisionAbort {
			t.Errorf("E16 %s: t-abort decided %v, want abort", r.Protocol, got)
		}
		if !r.ReplayAgree {
			t.Errorf("E16 %s: replay decisions diverge from live run", r.Protocol)
		}
		if !r.DurableAgree {
			t.Errorf("E16 %s: durable decision records diverge from live run", r.Protocol)
		}
	}
}

// TestReplayDetectsADroppedDelivery is the replay's negative control: the
// recorded trace replays in agreement, and the same trace without one
// cohort's commit delivery does not — that cohort is left undecided.
// (Not every delivery counts: the replay compares final decisions and
// stores, so dropping, say, a redundant second no-vote goes unnoticed.)
func TestReplayDetectsADroppedDelivery(t *testing.T) {
	for _, p := range []tpc.Protocol{tpc.ThreePhase, tpc.TwoPhase} {
		rec, err := record(p, liveCluster)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if row, err := rec.replay(rec.trace); err != nil || !row.Agree() {
			t.Fatalf("%s: unmodified trace: %+v, %v", p, row, err)
		}
		dropped := 0
		for i, e := range rec.trace {
			if e.Msg.Kind != tpc.KindCommit {
				continue
			}
			dropped++
			row, err := rec.replay(append(slices.Clone(rec.trace[:i]), rec.trace[i+1:]...))
			if err != nil {
				t.Fatalf("%s: replay without delivery %d: %v", p, i, err)
			}
			if row.ReplayAgree {
				t.Errorf("%s: replay without the commit to %d (delivery %d): %+v", p, e.Msg.To, i, row)
			}
		}
		if dropped != 3 {
			t.Errorf("%s: %d commit deliveries traced, want one per cohort", p, dropped)
		}
	}
}
