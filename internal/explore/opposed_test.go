package explore

import (
	"fmt"
	"testing"
)

// opposedProgress sweeps the opposed workload's three transactions
// (warm-up, then a pair touching the same two cross-shard keys in opposite
// orders) over seeds 1–3, and fails when any transaction is left undecided
// without a fault to excuse it. It logs the sweep's tally.
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
// lock managers. The managers are no-wait: a conflicting request is
// refused, the site fails its work at once, and the opposed pair decides
// instead of waiting on each other across the managers. The gate fails if
// a site ever waits for a lock, since then the pair can close a
// waits-for cycle that nothing breaks.
func TestOpposedProgressTwoShards(t *testing.T) { opposedProgress(t, 2) }

// TestOpposedProgressOneShard is the same gate over one lock manager per
// site.
func TestOpposedProgressOneShard(t *testing.T) { opposedProgress(t, 1) }
