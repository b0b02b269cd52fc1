package txn

import (
	"fmt"
	"testing"

	"speccat/internal/kvstore"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/tpc"
)

// shardedCluster builds a cluster whose sites are 4-way hash-sharded (the
// cluster constructor group-commits every store) — the full serving-path
// configuration, in the simulator.
func shardedCluster(t *testing.T, seed int64, n int) *Cluster {
	t.Helper()
	sched := sim.NewScheduler(seed)
	net := simnet.New(sched, simnet.DefaultOptions())
	c, err := NewShardedClusterOn(net, n, tpc.Config{Protocol: tpc.ThreePhase}, 4)
	mustOK(t, err)
	return c
}

// TestShardedScopedCommit: a cross-site transaction through sharded,
// group-committed sites commits and its writes land, while a site the
// transaction never touched sees no protocol state for it — the scoped
// prepare fan-out spans only touched sites.
func TestShardedScopedCommit(t *testing.T) {
	c := shardedCluster(t, 1, 3)
	s2, s3, s4 := c.SiteIDs[0], c.SiteIDs[1], c.SiteIDs[2]
	res := submitAndRun(t, c, "t1", []Op{
		{Site: s2, Key: "x", Value: "1", IsWrite: true},
		{Site: s3, Key: "y", Value: "2", IsWrite: true},
	})
	if res.Decision != tpc.DecisionCommit {
		t.Fatalf("decision = %s", res.Decision)
	}
	if c.Sites[s2].Store.Read("x") != "1" || c.Sites[s3].Store.Read("y") != "2" {
		t.Fatal("committed values not visible")
	}
	if st := c.Sites[s4].StateOf("t1"); st != tpc.StateInitial {
		t.Fatalf("untouched site drawn into the protocol: state %v", st)
	}
}

// TestShardedMultiShardTxnSpansShards: one transaction whose keys hash to
// several shards of one site commits atomically across them, and the
// site-level abort of a later conflicting transaction undoes only its own
// branches.
func TestShardedMultiShardTxnSpansShards(t *testing.T) {
	c := shardedCluster(t, 2, 2)
	s2 := c.SiteIDs[0]
	// Enough distinct keys to touch several of the 4 shards.
	var ops []Op
	shards := map[int]bool{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key%02d", i)
		shards[kvstore.ShardOf(k, 4)] = true
		ops = append(ops, Op{Site: s2, Key: k, Value: fmt.Sprintf("v%d", i), IsWrite: true})
	}
	if len(shards) < 2 {
		t.Fatalf("test keys all hash to one shard; want spread, got %v", shards)
	}
	res := submitAndRun(t, c, "wide", ops)
	if res.Decision != tpc.DecisionCommit {
		t.Fatalf("decision = %s", res.Decision)
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key%02d", i)
		if got := c.Sites[s2].Store.Read(k); got != fmt.Sprintf("v%d", i) {
			t.Errorf("key %s = %q after commit", k, got)
		}
	}
	if c.Sites[s2].Store.OpenTxns() != 0 {
		t.Fatal("branches left open after commit")
	}
}

// TestShardedCrashRecoveryReplaysAllShards: a site crash after a committed
// multi-shard transaction (with group commit on, so the tail may sit in a
// batch window) must recover every shard's committed state from the one
// shared stable log.
func TestShardedCrashRecoveryReplaysAllShards(t *testing.T) {
	c := shardedCluster(t, 3, 2)
	s2 := c.SiteIDs[0]
	var ops []Op
	for i := 0; i < 8; i++ {
		ops = append(ops, Op{Site: s2, Key: fmt.Sprintf("key%02d", i), Value: "1", IsWrite: true})
	}
	res := submitAndRun(t, c, "wide", ops)
	if res.Decision != tpc.DecisionCommit {
		t.Fatalf("decision = %s", res.Decision)
	}
	mustOK(t, c.Net.Crash(s2))
	mustOK(t, c.Net.Recover(s2))
	c.Run()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key%02d", i)
		if got := c.Sites[s2].Store.Read(k); got != "1" {
			t.Errorf("key %s = %q after crash recovery", k, got)
		}
	}
	// The reopened store must keep its shard count.
	if n := c.Sites[s2].Store.NumShards(); n != 4 {
		t.Fatalf("recovered store has %d shards, want 4", n)
	}
}

// TestShardedConservationUnderConcurrency: concurrent increment-transfers
// across sites and shards conserve the total — the commutative path
// through per-shard lock managers and WALs stays sound.
func TestShardedConservationUnderConcurrency(t *testing.T) {
	c := shardedCluster(t, 4, 3)
	keys := []string{"a1", "a2", "a3", "a4", "a5", "a6"}
	var seed []Op
	for _, k := range keys {
		seed = append(seed, Op{Site: c.SiteFor(k), Key: k, Value: "100", IsWrite: true})
	}
	if res := submitAndRun(t, c, "seed", seed); res.Decision != tpc.DecisionCommit {
		t.Fatalf("seed decision = %s", res.Decision)
	}
	done := 0
	for i := 0; i < 12; i++ {
		src, dst := keys[i%len(keys)], keys[(i+3)%len(keys)]
		name := fmt.Sprintf("mv%02d", i)
		mustOK(t, c.Master.Submit(name, []Op{
			{Site: c.SiteFor(src), Key: src, Value: "-5", Class: ClassInc},
			{Site: c.SiteFor(dst), Key: dst, Value: "5", Class: ClassInc},
		}, func(r *Result) {
			if r.Decision == tpc.DecisionCommit {
				done++
			}
		}))
	}
	c.Run()
	if done == 0 {
		t.Fatal("no transfer committed")
	}
	if total := c.TotalOf(keys); total != 600 {
		t.Fatalf("total = %d after %d transfers, want 600", total, done)
	}
}
