package explore

import (
	"fmt"
	"testing"
)

// opposedProgress sweeps E20's staging — the opposed workload's three
// transactions (warm-up, then a pair touching the same two cross-shard keys
// in opposite orders) over seeds 1–3 — and fails when any transaction is
// left undecided without a fault to excuse it. The first line it prints is
// the sweep's tally, the evidence E20 reports.
func opposedProgress(t *testing.T, shards int) {
	tally, err := Sweep(SeedRange(1, 3), func(_ int, seed int64) Schedule {
		return Schedule{
			Protocol: Proto3PC, Seed: seed, Sites: 3, Accounts: 8, Txns: 3,
			Shards: shards, Workload: WorkloadOpposed, Horizon: 6000,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("opposed workload, %d shard(s), seeds 1-3: %d committed, %d aborted, %d undecided, %d stalls",
		shards, tally.Committed, tally.Aborted, tally.Undecided, tally.Stalls)
	if len(tally.Violated) > 0 {
		t.Fatalf("%s; violated %v", line, tally.Violated)
	}
	t.Log(line)
}

// TestOpposedProgressTwoShards is the progress gate over two shard-local
// lock managers. The served engine fails a conflicting work phase at once,
// so the opposed pair aborts instead of waiting. The lock-wait mutant
// (internal/mutant) waits instead: the pair closes a waits-for cycle that
// spans both managers, neither per-shard detector sees it, and the gate
// fails — the blind spot lockcheck's lock-order rule names statically.
func TestOpposedProgressTwoShards(t *testing.T) { opposedProgress(t, 2) }

// TestOpposedProgressOneShard is the same gate over one lock manager per
// site. The lock-wait mutant passes it: the cycle lives in one waits-for
// graph, the detector aborts a victim, and every transaction decides.
func TestOpposedProgressOneShard(t *testing.T) { opposedProgress(t, 1) }
