package lockcheck

import (
	"fmt"

	"speccat/internal/analysis"
	"speccat/internal/explore"
)

// CrossValidation is the dynamic witness for one static lock-order
// finding: a concrete replayable schedule on which the sharded engine,
// trusting its per-shard deadlock detectors, stalls forever — plus the
// control showing the canonical acquisition order survives the identical
// staging.
type CrossValidation struct {
	// Rule is the static rule being witnessed (always lock-order).
	Rule string
	// Seed is the probe seed that produced the witness.
	Seed int64
	// Schedule is the stalling run (replayable with cmd/tpcexplore): the
	// opposed workload over per-shard lock managers with lock waiting on
	// and canonical ordering off — the configuration the finding convicts.
	Schedule explore.Schedule
	// Violated are the oracle names the witness run fails; the conviction
	// is the fault-free progress oracle (undecided transactions with no
	// crash to excuse them: the cross-manager waits-for cycle neither
	// per-shard detector can see).
	Violated []string
	// CanonicalClean records that the repaired arm — the identical
	// schedule with CanonicalLockOrder set — violated nothing, isolating
	// the acquisition order as the failure's single cause.
	CanonicalClean bool
}

// OpposedSchedule is the staging both arms of the cross-validation (and
// experiment E20) share: a 3PC cluster whose stores are split over two
// shard-local lock managers, running the opposed workload (transaction
// pairs touching the same two cross-shard keys in opposite orders) with
// lock waiting instead of conflict aborts. The horizon bounds the run
// because a cross-manager deadlock, by construction, never quiesces.
func OpposedSchedule(seed int64) explore.Schedule {
	return explore.Schedule{
		Protocol: explore.Proto3PC,
		Seed:     seed,
		Sites:    3,
		Accounts: 8,
		Txns:     3,
		Shards:   2,
		Workload: explore.WorkloadOpposed,
		LockWait: true,
		Horizon:  6000,
	}
}

// CrossValidate turns a static lock-order finding into a dynamic
// counterexample: the first seed whose opposed-workload schedule stalls
// the ablated engine (iteration-order acquisition across two shard-local
// managers — the shape the finding convicts) into a fault-free progress
// violation, with the repaired arm (the identical schedule under
// CanonicalLockOrder) run as its control.
//
// It returns nil when no seed yields one — the expected outcome when the
// engine under test already acquires in canonical order (the negative
// control of the cross-validation tests).
func CrossValidate(finding analysis.Diagnostic, seeds []int64) (*CrossValidation, error) {
	if finding.Rule != RuleOrder {
		return nil, fmt.Errorf("lockcheck: cross-validation witnesses %s findings, got %s", RuleOrder, finding.Rule)
	}
	w, err := explore.Witness(seeds, OpposedSchedule, explore.OracleProgress,
		func(s *explore.Schedule) { s.CanonicalLockOrder = true })
	if err != nil {
		return nil, fmt.Errorf("lockcheck: cross-validation: %w", err)
	}
	if w == nil {
		return nil, nil
	}
	return &CrossValidation{
		Rule: finding.Rule, Seed: w.Seed, Schedule: w.Schedule,
		Violated: w.Violated, CanonicalClean: w.ControlClean,
	}, nil
}
