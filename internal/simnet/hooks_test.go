package simnet

import (
	"errors"
	"testing"

	"speccat/internal/sim"
)

// TestSendHookFaultTable drives the schedule-injection API through its
// fault matrix: drop and delay-inflation of one targeted send, crossed
// with FIFO on/off, plus crash-at-send with and without restart. Node 1
// sends ten numbered messages to node 2; the hook faults global send #4.
func TestSendHookFaultTable(t *testing.T) {
	const (
		total     = 10
		targetSeq = 4
	)
	cases := []struct {
		name  string
		fifo  bool
		fault SendFault
		// wantDelivered is how many of the ten messages arrive.
		wantDelivered int
		// wantMissing is a payload that must not arrive (-1: none).
		wantMissing int
		// wantInOrder asserts payloads arrive ascending.
		wantInOrder bool
		// wantLast asserts the final arrival's payload (-1: don't check).
		wantLast int
		// wantSenderDown asserts node 1 ends the run crashed.
		wantSenderDown bool
	}{
		{
			name: "drop/fifo", fifo: true, fault: SendFault{Drop: true},
			wantDelivered: total - 1, wantMissing: targetSeq, wantInOrder: true, wantLast: -1,
		},
		{
			name: "drop/no-fifo", fifo: false, fault: SendFault{Drop: true},
			wantDelivered: total - 1, wantMissing: targetSeq, wantLast: -1,
		},
		{
			// FIFO absorbs the inflation: later sends on the channel queue
			// behind the delayed one, so order is preserved end to end.
			name: "delay/fifo", fifo: true, fault: SendFault{Delay: 200},
			wantDelivered: total, wantMissing: -1, wantInOrder: true, wantLast: -1,
		},
		{
			// Without FIFO the inflated message overtakes nothing — it
			// arrives dead last, reordered past every later send.
			name: "delay/no-fifo", fifo: false, fault: SendFault{Delay: 200},
			wantDelivered: total, wantMissing: -1, wantLast: targetSeq,
		},
		{
			// The sender dies mid-burst: the faulted message and everything
			// after it are lost, the prefix is delivered.
			name: "crash-sender/fifo", fifo: true, fault: SendFault{CrashSender: true},
			wantDelivered: targetSeq, wantMissing: targetSeq, wantInOrder: true, wantLast: -1,
			wantSenderDown: true,
		},
		{
			name: "crash-sender/no-fifo", fifo: false, fault: SendFault{CrashSender: true},
			wantDelivered: targetSeq, wantMissing: targetSeq, wantLast: -1,
			wantSenderDown: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler(11)
			n := New(sched, Options{MinDelay: 1, MaxDelay: 10, FIFO: tc.fifo})
			n.AddNode(1, nil)
			c := &collector{}
			n.AddNode(2, c.handler())

			var crashed []NodeID
			n.OnCrash = func(id NodeID) { crashed = append(crashed, id) }
			var hookSeqs []uint64
			n.OnSend = func(seq uint64, msg Message) SendFault {
				hookSeqs = append(hookSeqs, seq)
				if seq == targetSeq {
					return tc.fault
				}
				return SendFault{}
			}
			// A sender-side timer: a hook-injected crash must cancel it like
			// an explicit Crash does.
			timerFired := false
			n.After(1, 50, func() { timerFired = true })

			var sendErrs int
			for i := 0; i < total; i++ {
				if err := n.Send(1, 2, "m", i); err != nil {
					if !errors.Is(err, ErrNodeDown) {
						t.Fatalf("send %d: unexpected error %v", i, err)
					}
					sendErrs++
				}
			}
			sched.Run(0)

			if len(c.got) != tc.wantDelivered {
				t.Fatalf("delivered %d messages, want %d", len(c.got), tc.wantDelivered)
			}
			for _, m := range c.got {
				if tc.wantMissing >= 0 && m.Payload.(int) == tc.wantMissing {
					t.Errorf("payload %d delivered despite fault", tc.wantMissing)
				}
			}
			if tc.wantInOrder {
				prev := -1
				for _, m := range c.got {
					if p := m.Payload.(int); p <= prev {
						t.Errorf("order broken: %d after %d", p, prev)
					} else {
						prev = p
					}
				}
			}
			if tc.wantLast >= 0 {
				if last := c.got[len(c.got)-1].Payload.(int); last != tc.wantLast {
					t.Errorf("last arrival payload = %d, want %d", last, tc.wantLast)
				}
			}
			if tc.wantSenderDown {
				if n.Up(1) {
					t.Error("sender still up after crash-at-send")
				}
				if wantErrs := total - targetSeq; sendErrs != wantErrs {
					t.Errorf("got %d ErrNodeDown sends, want %d", sendErrs, wantErrs)
				}
				if len(crashed) != 1 || crashed[0] != 1 {
					t.Errorf("OnCrash observed %v, want [1]", crashed)
				}
				if timerFired {
					t.Error("sender timer fired after hook-injected crash")
				}
				// Hook sees no sends after the crash (down senders error out
				// before the hook runs).
				if got := len(hookSeqs); got != targetSeq+1 {
					t.Errorf("hook observed %d sends, want %d", got, targetSeq+1)
				}
			} else {
				if sendErrs != 0 {
					t.Errorf("%d sends failed unexpectedly", sendErrs)
				}
				if got := len(hookSeqs); got != total {
					t.Errorf("hook observed %d sends, want %d", got, total)
				}
			}
			for i, s := range hookSeqs {
				if s != uint64(i) {
					t.Fatalf("hook seq %d at position %d: sequence numbers must be dense", s, i)
				}
			}
		})
	}
}

// TestSendHookCrashThenRestart closes the loop: a hook-injected crash
// behaves exactly like an explicit one under Recover — the recovery
// callback runs, synced stable storage survives, and the node sends again with
// the global send sequence continuing where it left off.
func TestSendHookCrashThenRestart(t *testing.T) {
	sched := sim.NewScheduler(5)
	n := New(sched, DefaultOptions())
	st := n.AddNode(1, nil)
	c := &collector{}
	n.AddNode(2, c.handler())
	st.Put("survives", []byte("yes"))
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	n.OnSend = func(seq uint64, msg Message) SendFault {
		if seq == 1 {
			return SendFault{CrashSender: true}
		}
		return SendFault{}
	}
	recovered := false
	if err := n.SetRecover(1, func() error { recovered = true; return nil }); err != nil {
		t.Fatal(err)
	}

	mustSendState := func(wantErr bool, i int) {
		err := n.Send(1, 2, "m", i)
		if wantErr && err == nil {
			t.Fatalf("send %d: expected ErrNodeDown", i)
		}
		if !wantErr && err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	mustSendState(false, 0) // seq 0: fine
	mustSendState(true, 1)  // seq 1: crash injected
	mustSendState(true, 2)  // down

	if err := n.Recover(1); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("recovery callback did not run")
	}
	if v, ok := st.Get("survives"); !ok || string(v) != "yes" {
		t.Fatal("stable storage lost across hook-injected crash")
	}
	mustSendState(false, 3) // seq continues after restart
	sched.Run(0)

	if len(c.got) != 2 {
		t.Fatalf("delivered %d, want 2 (pre-crash and post-restart)", len(c.got))
	}
	if a, b := c.got[0].Payload.(int), c.got[1].Payload.(int); a != 0 || b != 3 {
		t.Fatalf("delivered payloads %d,%d; want 0,3", a, b)
	}
	if got := n.SendSeq(); got != 3 {
		t.Fatalf("SendSeq = %d, want 3 (crashed send consumed its number)", got)
	}
}
