package durcheck

import (
	"fmt"

	"speccat/internal/explore"
	"speccat/internal/simnet"
)

// wire value of the 3PC prepare fan-out, used to stage the coordinator
// crash that forces the cohorts into the termination protocol.
const prepareKind = "tpc.prepare"

// CrossValidation is the dynamic witness for one static finding: a
// concrete replayable schedule whose run violates the atomicity or
// durability oracle because a send of Kind escaped before its required
// durable write.
type CrossValidation struct {
	// Kind is the wire value of the offending message kind.
	Kind string
	// Seed is the probe seed that produced the witness.
	Seed int64
	// Schedule is the replayable witness (runnable with cmd/tpcexplore).
	Schedule explore.Schedule
	// Violated are the oracle names the witness run fails.
	Violated []string
}

// CrossValidate turns a static dur-send finding into a dynamic
// counterexample: it stages, per seed, a schedule that (1) drops one
// prepare of a fan-out and crashes the coordinator — wedging one cohort a
// phase behind and forcing the survivors into the termination protocol —
// then (2) crashes the terminating cohort between the first and second
// send of its decision dissemination of kindValue, and recovers it later.
// If that dissemination is not write-ahead of the decision (what the
// static finding claims), the recovered cohort re-decides from its stale
// durable state while a peer already acted on the escaped message, and the
// atomicity or durability oracle fails.
//
// It runs the module's 3PC engine and returns the first witness, or nil
// when no seed yields one: the served engine persists first; the unsafe
// termination mutant of internal/mutant sends first and yields one.
func CrossValidate(kindValue string, seeds []int64) (*CrossValidation, error) {
	for _, seed := range seeds {
		cv, err := crossValidateSeed(kindValue, seed)
		if err != nil {
			return nil, err
		}
		if cv != nil {
			return cv, nil
		}
	}
	return nil, nil
}

func crossValidateSeed(kindValue string, seed int64) (*CrossValidation, error) {
	// Stage 1: fault-free probe for the time/send coordinates of the run, over
	// three-site transactions (stage 4 needs a backup with two peers to tell).
	base := explore.Schedule{Protocol: explore.Proto3PC, Seed: seed, Workload: explore.WorkloadCrossPartition, Spread: 3}
	probe, probeLog, err := explore.RunLogged(base)
	if err != nil {
		return nil, fmt.Errorf("durcheck: cross-validation probe: %w", err)
	}
	horizon := probe.Stats.End + 3000

	// Stage 2: the first post-setup prepare fan-out locates the coordinator
	// and a victim cohort. Dropping one prepare leaves that cohort a phase
	// behind; crashing the coordinator right after hands the decision to
	// the cohorts' termination protocol.
	prep := consecutiveGroup(probeLog, prepareKind, probe.Stats.SetupSends, 0)
	if len(prep) < 2 {
		return nil, nil
	}
	coord := prep[0].From
	staged := base
	staged.Horizon = horizon
	staged.Faults = []explore.Fault{
		{Kind: explore.FaultDropSend, Seq: prep[0].Seq},
		{Kind: explore.FaultCrashAtTime, Site: coord, At: prep[0].At + 1},
	}

	// Stage 3: find the terminating cohort's dissemination of kindValue —
	// a consecutive multi-target fan-out not sent by the coordinator.
	_, stagedLog, err := explore.RunLogged(staged)
	if err != nil {
		return nil, fmt.Errorf("durcheck: cross-validation staging: %w", err)
	}
	diss := consecutiveGroup(stagedLog, kindValue, prep[0].Seq, coord)
	if len(diss) < 2 {
		return nil, nil
	}

	// Stage 4: crash the disseminating cohort between its first and second
	// send, recover it later, and check the oracles. A write-ahead engine
	// re-decides identically after recovery; one that sends first splits
	// the decision.
	recoverAt := diss[0].At + 400
	final := staged
	if recoverAt+400 > final.Horizon {
		final.Horizon = recoverAt + 400
	}
	final.Faults = append(append([]explore.Fault{}, staged.Faults...),
		explore.Fault{Kind: explore.FaultCrashAtSend, Site: diss[0].From, Seq: diss[1].Seq},
		explore.Fault{Kind: explore.FaultRecoverAtTime, Site: diss[0].From, At: recoverAt},
	)
	res, err := explore.Run(final)
	if err != nil {
		return nil, fmt.Errorf("durcheck: cross-validation run: %w", err)
	}
	for _, oracle := range res.ViolatedOracles() {
		if oracle == "atomicity" || oracle == "durability" {
			return &CrossValidation{
				Kind:     kindValue,
				Seed:     seed,
				Schedule: final,
				Violated: res.ViolatedOracles(),
			}, nil
		}
	}
	return nil, nil
}

// consecutiveGroup returns the first run of at least two consecutive
// sends of kind in the log with the same sender and timestamp, starting at
// or after minSeq and not sent by exclude (pass 0 to exclude nobody —
// node IDs are 1-based).
func consecutiveGroup(log []explore.SendInfo, kind string, minSeq uint64, exclude simnet.NodeID) []explore.SendInfo {
	var group []explore.SendInfo
	for _, s := range log {
		if s.Seq < minSeq || s.Kind != kind || s.From == exclude {
			if len(group) >= 2 {
				return group
			}
			group = nil
			continue
		}
		if len(group) > 0 && (group[0].From != s.From || group[0].At != s.At) {
			if len(group) >= 2 {
				return group
			}
			group = nil
		}
		group = append(group, s)
	}
	if len(group) >= 2 {
		return group
	}
	return nil
}
