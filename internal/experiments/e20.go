package experiments

import (
	"fmt"

	"speccat/internal/analysis"
	"speccat/internal/analysis/lockcheck"
	"speccat/internal/explore"
)

// E20 — lock discipline, static and witnessed. The lockcheck layer walks
// every locking.Manager call site reachable from the protocol handlers
// and store operations, enforcing two-phase growth, release-on-every-path,
// no acquisition past a durability wait or before the wal decision record,
// and canonical ascending shard order for cross-shard acquisitions — the
// order whose absence per-shard deadlock detectors cannot compensate for,
// because a waits-for cycle split across two managers is invisible to
// both. E20 runs in two movements: (1) the static analysis over this
// module — zero findings (reasoned suppressions included), with pinned
// coverage so the clean verdict is non-vacuous; (2) the dynamic twin of
// the lock-order rule — the opposed workload (transaction pairs touching
// the same cross-shard keys in opposite orders) run against the ablated
// sharded engine (stalls into a fault-free progress violation), the same
// engine under CanonicalLockOrder (clean), and the single-manager store
// (clean: its one detector sees the cycle and aborts a victim).

// E20Arm aggregates one engine configuration over the opposed-workload
// seed sweep; its Stalls are the seeds that violated the fault-free
// progress oracle.
type E20Arm struct {
	// Label names the configuration ("sharded", "sharded+canonical", or
	// "single-manager").
	Label string
	explore.Tally
}

// E20Result pairs the static lockcheck summary over this module with the
// three dynamic arms.
type E20Result struct {
	// Findings is the static finding count over ./internal/... — zero on
	// a lock-discipline-clean tree.
	Findings int
	// Roots, Analyzed, AcquireSites, ReleaseSites, RoutedCalls and
	// SyncThenSites summarize analysis coverage (lockcheck.Report); a
	// clean run over zero lock events would prove nothing.
	Roots, Analyzed, AcquireSites, ReleaseSites, RoutedCalls, SyncThenSites int
	// Ablated is the per-shard-manager engine acquiring in submission
	// order — the configuration the lock-order rule convicts; Canonical
	// the identical schedule with ascending-shard presorting; Single the
	// one-shard store whose one detector covers the whole waits-for graph.
	Ablated   E20Arm
	Canonical E20Arm
	Single    E20Arm
	// Witness reports that CrossValidate produced a replayable stall
	// schedule for a lock-order finding with a clean canonical control;
	// WitnessSeed is its seed.
	Witness     bool
	WitnessSeed int64
}

// e20Arm sweeps one engine configuration over the opposed schedule.
func e20Arm(label string, seeds []int64, mutate func(*explore.Schedule)) (E20Arm, error) {
	t, err := explore.Sweep(seeds, func(_ int, seed int64) explore.Schedule {
		spec := lockcheck.OpposedSchedule(seed)
		mutate(&spec)
		return spec
	})
	if err != nil {
		return E20Arm{}, fmt.Errorf("e20: %s: %w", label, err)
	}
	return E20Arm{Label: label, Tally: t}, nil
}

// E20LockDiscipline runs both movements over the given seeds.
func E20LockDiscipline(seeds []int64) (*E20Result, error) {
	pkgs, err := loadInternal()
	if err != nil {
		return nil, err
	}
	rep, diags := lockcheck.Run(pkgs)
	res := &E20Result{
		Findings:      len(diags),
		Roots:         len(rep.Roots),
		Analyzed:      rep.Analyzed,
		AcquireSites:  rep.AcquireSites,
		ReleaseSites:  rep.ReleaseSites,
		RoutedCalls:   rep.RoutedCalls,
		SyncThenSites: rep.SyncThenSites,
	}

	if res.Ablated, err = e20Arm("sharded", seeds, func(*explore.Schedule) {}); err != nil {
		return nil, err
	}
	if res.Canonical, err = e20Arm("sharded+canonical", seeds, func(s *explore.Schedule) {
		s.CanonicalLockOrder = true
	}); err != nil {
		return nil, err
	}
	if res.Single, err = e20Arm("single-manager", seeds, func(s *explore.Schedule) {
		s.Shards = 0
	}); err != nil {
		return nil, err
	}

	// The witness arm exercises the finding→schedule compiler exactly as
	// speccatlint would hand it a live lock-order diagnostic.
	cv, err := lockcheck.CrossValidate(analysis.Diagnostic{Rule: lockcheck.RuleOrder}, seeds)
	if err != nil {
		return nil, err
	}
	if cv != nil && cv.CanonicalClean {
		res.Witness = true
		res.WitnessSeed = cv.Seed
	}
	return res, nil
}
