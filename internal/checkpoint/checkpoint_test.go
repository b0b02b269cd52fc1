package checkpoint

import (
	"errors"
	"fmt"
	"testing"

	"speccat/internal/sim"
	"speccat/internal/simnet"
)

// site pairs a volatile state with its checkpointing node.
type site struct {
	state string
	node  *Node
}

func setup(seed int64, n int) (*simnet.Network, map[simnet.NodeID]*site) {
	sched := sim.NewScheduler(seed)
	net := simnet.New(sched, simnet.DefaultOptions())
	sites := map[simnet.NodeID]*site{}
	for i := 1; i <= n; i++ {
		id := simnet.NodeID(i)
		s := &site{state: fmt.Sprintf("s%d-v0", i)}
		sites[id] = s
		net.AddNode(id, nil)
	}
	for id, s := range sites {
		s.node = New(net, id, func() []byte { return []byte(s.state) })
		s := s
		if err := net.SetHandler(id, func(m simnet.Message) { s.node.HandleMessage(m) }); err != nil {
			panic(err)
		}
	}
	return net, sites
}

func TestCoordinatedCheckpointBecomesPermanent(t *testing.T) {
	net, sites := setup(1, 3)
	sites[1].node.StartCoordinator(100)
	net.Scheduler().RunUntil(300)
	for id := range sites {
		st, err := net.Store(id)
		if err != nil {
			t.Fatal(err)
		}
		seq, state, err := Permanent(st)
		if err != nil {
			t.Fatalf("site %d: %v", id, err)
		}
		if seq == 0 || len(state) == 0 {
			t.Fatalf("site %d: seq=%d state=%q", id, seq, state)
		}
	}
}

func TestPeriodicRounds(t *testing.T) {
	net, sites := setup(2, 2)
	var promoted []int
	sites[2].node.OnPermanent = func(seq int) { promoted = append(promoted, seq) }
	sites[1].node.StartCoordinator(100)
	net.Scheduler().RunUntil(450)
	if len(promoted) < 3 {
		t.Fatalf("promotions = %v, want >= 3 rounds", promoted)
	}
	for i := 1; i < len(promoted); i++ {
		if promoted[i] != promoted[i-1]+1 {
			t.Fatalf("non-sequential promotions: %v", promoted)
		}
	}
}

func TestCrashBeforeAckBlocksPromotion(t *testing.T) {
	// One participant crashes before the take message arrives; the
	// coordinator never gets its ack in this round, but promotion still
	// proceeds for operational sites once the crash is observable — our
	// engine requires acks only from operational sites at ack time.
	net, sites := setup(3, 3)
	if err := net.Crash(3); err != nil {
		t.Fatal(err)
	}
	sites[1].node.StartCoordinator(100)
	net.Scheduler().RunUntil(400)
	for _, id := range []simnet.NodeID{1, 2} {
		st, _ := net.Store(id)
		if _, _, err := Permanent(st); err != nil {
			t.Fatalf("operational site %d has no permanent checkpoint: %v", id, err)
		}
	}
	st3, _ := net.Store(3)
	if _, _, err := Permanent(st3); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("crashed site has a checkpoint: %v", err)
	}
}

func TestTentativeNotPermanentWithoutCommit(t *testing.T) {
	// Coordinator crashes right after broadcasting "take": tentative
	// checkpoints exist but must never be promoted.
	net, sites := setup(4, 3)
	sites[1].node.StartCoordinator(0) // no periodic rounds
	sites[1].node.TakeNow()
	if err := net.Crash(1); err != nil {
		t.Fatal(err)
	}
	net.Scheduler().Run(0)
	for _, id := range []simnet.NodeID{2, 3} {
		st, _ := net.Store(id)
		if _, _, err := Tentative(st); err != nil {
			t.Fatalf("site %d lacks tentative checkpoint: %v", id, err)
		}
		if _, _, err := Permanent(st); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("site %d promoted without commit: %v", id, err)
		}
	}
}

func TestCheckpointCapturesCurrentState(t *testing.T) {
	net, sites := setup(5, 2)
	sites[2].state = "before"
	sites[1].node.StartCoordinator(0)
	sites[1].node.TakeNow()
	// Mutate after the take is in flight but before the next round; the
	// captured state is whatever was current at save time.
	net.Scheduler().Run(0)
	st, _ := net.Store(2)
	_, state, err := Permanent(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "before" {
		t.Fatalf("captured %q", state)
	}
}

func TestDiscardTentative(t *testing.T) {
	net, sites := setup(6, 2)
	sites[1].node.StartCoordinator(0)
	sites[1].node.TakeNow()
	if err := net.Crash(1); err != nil {
		t.Fatal(err)
	}
	net.Scheduler().Run(0)
	st, _ := net.Store(2)
	if _, _, err := Tentative(st); err != nil {
		t.Fatal("no tentative to discard")
	}
	DiscardTentative(st)
	if _, _, err := Tentative(st); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatal("tentative survived discard")
	}
}

// TestPermanentCheckpointSurvivesCrash: a site acks a tentative checkpoint
// and reports a permanent one only once a Sync covers it — a crash takes
// whatever the store was handed since its last Sync.
func TestPermanentCheckpointSurvivesCrash(t *testing.T) {
	net, sites := setup(7, 3)
	sites[1].node.StartCoordinator(0)
	sites[1].node.TakeNow()
	net.Scheduler().Run(0)
	for id := range sites {
		st, _ := net.Store(id)
		want, _, err := Permanent(st)
		if err != nil {
			t.Fatalf("site %d before its crash: %v", id, err)
		}
		if err := net.Crash(id); err != nil {
			t.Fatal(err)
		}
		if seq, _, err := Permanent(st); err != nil || seq != want {
			t.Errorf("site %d after its crash: seq=%d, %v; had reported %d permanent", id, seq, err, want)
		}
	}
}
