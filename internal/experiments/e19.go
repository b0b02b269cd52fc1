package experiments

import (
	"fmt"

	"speccat/internal/explore"
	"speccat/internal/simnet"
)

// E19 — the sharded, group-committed commit path. The serving path routes
// keys to hash-sharded partitions (per-shard lock managers and WALs over
// one stable journal) and batches the journal's fsyncs behind a
// leader-follower group commit whose sync points follow the divergence
// rule: persist-and-sync only where 3PC's independent recovery cannot
// re-derive the record. E19 is the conformance half of that design, in
// three movements: (1) the cross-partition workload run unsharded and
// sharded — same outcomes, every oracle clean, so the layered store
// refactor changed no protocol behavior; (2) the fsync bill of each arm —
// syncs per committed transaction, the quantity group commit exists to
// shrink and the number the divergence rule pins (happy-path 3PC: one
// coordinator sync, two per touched cohort); (3) a crash-at-sync sweep
// that kills a site at batch boundaries — inside the window group commit
// deliberately leaves open — with recovery, and every oracle still clean.

// E19Row aggregates one commit-path configuration over a seed sweep of the
// same cross-partition workload shape.
type E19Row struct {
	// Label names the configuration ("unsharded" or "sharded").
	Label string
	// Shards is the per-site hash-shard count (1 = the undivided store).
	Shards int
	// Txns is the workload transactions per schedule.
	Txns int
	explore.Tally
	// Throughput is committed transactions per 1000 simulated ticks.
	Throughput float64
	// SyncsPerCommit is the fsync bill per committed transaction — the
	// metric group commit exists to shrink.
	SyncsPerCommit float64
}

// E19Result is the full experiment outcome.
type E19Result struct {
	Unsharded E19Row
	Sharded   E19Row
	// CrashSeeds schedules ran the sharded arm with a crash at a batch
	// boundary (FaultCrashAtSync) plus recovery; CrashClean reports all
	// oracles held across them.
	CrashSeeds int
	CrashClean bool
	// CrashViolated lists oracle names that failed in the crash sweep
	// (diagnostic; empty when CrashClean).
	CrashViolated []string
}

// e19Shape is the common workload shape of every arm: the cross-partition
// mix spreads each write transaction over several accounts, so with 4-way
// sharding most transactions span shards and the touched-sites fan-out,
// per-shard branches, and shared-journal recovery are all on the hot path.
const (
	e19Accounts = 8
	e19Txns     = 24
	e19Theta    = 0.9
	e19Reads    = 0.2
	e19Spread   = 4
	e19Shards   = 4
)

func e19Schedule(seed int64) explore.Schedule {
	return explore.Schedule{
		Protocol: explore.Proto3PC, Seed: seed, Sites: 3,
		Accounts: e19Accounts, Txns: e19Txns,
		Workload:  explore.WorkloadCrossPartition,
		ZipfTheta: e19Theta, ReadFraction: e19Reads, Spread: e19Spread,
	}
}

// e19Sweep runs one commit-path configuration over the seeds and
// aggregates outcomes.
func e19Sweep(label string, seeds []int64, shards int) (E19Row, error) {
	t, err := explore.Sweep(seeds, func(_ int, seed int64) explore.Schedule {
		spec := e19Schedule(seed)
		spec.Shards = shards
		return spec
	})
	if err != nil {
		return E19Row{}, fmt.Errorf("e19: %s: %w", label, err)
	}
	row := E19Row{Label: label, Shards: shards, Txns: e19Txns, Tally: t, Throughput: t.CommitsPerKTick()}
	if t.Committed > 0 {
		row.SyncsPerCommit = float64(t.Syncs) / float64(t.Committed)
	}
	return row, nil
}

// E19ShardedCommit runs all three movements over the given seeds.
func E19ShardedCommit(seeds []int64) (*E19Result, error) {
	out := &E19Result{}
	var err error
	if out.Unsharded, err = e19Sweep("unsharded", seeds, 1); err != nil {
		return nil, err
	}
	if out.Sharded, err = e19Sweep("sharded", seeds, e19Shards); err != nil {
		return nil, err
	}

	// Movement 3: crash a site at a batch boundary — sync #nth, the edge of
	// the window where the un-synced tail of the journal is lost — then
	// recover it, and demand every oracle clean. The victim and boundary
	// rotate with the seed so the sweep lands on different protocol moments.
	crash, err := explore.Sweep(seeds, func(i int, seed int64) explore.Schedule {
		spec := e19Schedule(seed)
		spec.Shards = e19Shards
		spec.Horizon = 8000
		victim := simnet.NodeID(2 + i%3)
		spec.Faults = []explore.Fault{
			{Kind: explore.FaultCrashAtSync, Site: victim, Nth: 1 + i%6},
			{Kind: explore.FaultRecoverAtTime, Site: victim, At: 4000},
		}
		return spec
	})
	if err != nil {
		return nil, fmt.Errorf("e19: crash: %w", err)
	}
	out.CrashSeeds = crash.Seeds
	out.CrashViolated = crash.Violated
	out.CrashClean = len(crash.Violated) == 0
	return out, nil
}
