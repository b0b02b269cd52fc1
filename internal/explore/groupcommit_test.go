package explore

import (
	"testing"

	"speccat/internal/sim"
	"speccat/internal/simnet"
)

// gcBase is the schedule shape the group-commit tests share: 3PC over
// three sites whose stores are 2-way hash-sharded and group-committed.
func gcBase(seed int64) Schedule {
	return Schedule{
		Protocol: Proto3PC, Seed: seed, Sites: 3, Accounts: 8, Txns: 10, Shards: 2,
	}
}

// TestGroupCommitShardedFaultFreeClean: with group commit and sharding on,
// every workload kind still passes every oracle on a fault-free run — the
// batching and partitioning layers change the fsync and locking economics,
// not the outcomes.
func TestGroupCommitShardedFaultFreeClean(t *testing.T) {
	for _, wl := range []string{
		WorkloadTransfers, WorkloadReadMostly, WorkloadHotspot,
		WorkloadCommutative, WorkloadCrossPartition,
	} {
		spec := gcBase(11)
		spec.Workload = wl
		if wl == WorkloadCommutative || wl == WorkloadCrossPartition {
			spec.ZipfTheta = 0.9
			spec.ReadFraction = 0.2
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: violations on fault-free group-commit run: %+v", wl, res.Violations)
		}
		if res.Stats.Committed == 0 {
			t.Errorf("%s: committed nothing", wl)
		}
		if res.Stats.Undecided != 0 {
			t.Errorf("%s: %d transactions undecided at quiescence", wl, res.Stats.Undecided)
		}
	}
}

// TestGroupCommitCrashAtSyncSweep crashes each node at each of its first
// eight group-commit batch boundaries in turn (with a later restart) and
// demands every oracle stay clean. A crash at sync #N lands exactly at the
// opening of batch window N+1, so the sweep covers "the site loses
// everything it journaled since its last fsync" at every boundary the
// happy path produces — the failure mode group commit introduces and the
// divergence-rule sync placement must absorb.
func TestGroupCommitCrashAtSyncSweep(t *testing.T) {
	for victim := simnet.NodeID(1); victim <= 4; victim++ {
		for nth := 1; nth <= 8; nth++ {
			spec := gcBase(3)
			spec.Workload = WorkloadCrossPartition
			spec.ZipfTheta = 0.9
			spec.Faults = []Fault{
				{Kind: FaultCrashAtSync, Site: victim, Nth: nth},
				{Kind: FaultRecoverAtTime, Site: victim, At: 4000},
			}
			spec.Horizon = 8000
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("victim %d sync #%d: %v", victim, nth, err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("victim %d sync #%d: violations: %+v", victim, nth, res.Violations)
			}
		}
	}
}

// TestGroupCommitCrashAtTimeSweep drops a crash (with restart) at evenly
// spaced points of the workload window with group commit on: unlike the
// sync-boundary sweep these land *inside* batch windows, destroying
// whatever the victim had journaled since its last divergence-mandated
// sync. The oracles must stay clean — in particular durability, whose
// committed history is judged against WAL-only recovery plus the p-record
// commit re-derivation.
func TestGroupCommitCrashAtTimeSweep(t *testing.T) {
	for victim := simnet.NodeID(1); victim <= 4; victim++ {
		for at := sim.Time(520); at <= 880; at += 60 {
			spec := gcBase(5)
			spec.Workload = WorkloadTransfers
			spec.Faults = []Fault{
				{Kind: FaultCrashAtTime, Site: victim, At: at},
				{Kind: FaultRecoverAtTime, Site: victim, At: at + 400},
			}
			spec.Horizon = 8000
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("victim %d at t=%d: %v", victim, at, err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("victim %d at t=%d: violations: %+v", victim, at, res.Violations)
			}
		}
	}
}

// TestGroupCommitCrashAtSendSweep aims crash-at-send faults across the
// whole workload send window of a group-committed sharded run: crashing a
// sender mid-fan-out while its journal tail sits in an open batch window
// is the compound failure the per-message sweeps can't produce. Every 7th
// send keeps the sweep affordable; determinism makes the stride stable.
func TestGroupCommitCrashAtSendSweep(t *testing.T) {
	probe := gcBase(9)
	probe.Workload = WorkloadCrossPartition
	probe.ZipfTheta = 0.9
	pr, err := Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pr.Stats.SetupSends, pr.Stats.TotalSends
	if hi <= lo {
		t.Fatalf("probe produced no workload sends (%d..%d)", lo, hi)
	}
	horizon := pr.Stats.End + 4000
	for seq := lo; seq < hi; seq += 7 {
		spec := probe
		spec.Faults = []Fault{{Kind: FaultCrashAtSend, Seq: seq}}
		spec.Horizon = horizon
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("crash at send #%d: violations: %+v", seq, res.Violations)
		}
	}
}
