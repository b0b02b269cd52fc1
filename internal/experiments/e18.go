package experiments

import (
	"fmt"

	"speccat/internal/explore"
	"speccat/internal/mutant"
)

// E18 — commutativity conformance. The commcheck layer proves, from the
// comm.sw axioms, that increments of one key commute, and derives the
// lock compatibility matrix that lets them share. E18 is the dynamic half
// of that argument, in three movements: (1) a zipfian update workload run
// twice — once as blind exclusive writes, once as the equivalent
// increment-transfers — measuring the conflict-rate and throughput win
// the shared IncMode buys; (2) the commutative mix under crash-and-recover
// faults, with every oracle (in particular serializability over the
// generalized conflict relation) staying clean; (3) the underlock mutant
// (internal/mutant) — Store.Put taking the increment lock, exactly what the
// comm-underlock static rule flags — which the serializability oracle must
// catch as incompatible lock classes held simultaneously (E18Ablation).

// E18Row aggregates one locking regime over a seed sweep of the same
// zipfian workload shape.
type E18Row struct {
	// Label names the regime ("exclusive-writes" or "inc-transfers").
	Label string
	// Txns is the workload transactions per schedule.
	Txns int
	explore.Tally
	// ConflictRate is Aborted/(Committed+Aborted): under the no-wait lock
	// policy every abort of these single-shot transactions is a lock
	// conflict.
	ConflictRate float64
	// Throughput is committed transactions per 1000 simulated ticks.
	Throughput float64
}

// E18Result is the full experiment outcome.
type E18Result struct {
	Exclusive   E18Row
	Commutative E18Row
	// FaultedSeeds schedules ran the commutative mix under a
	// crash-and-recover fault; FaultedClean reports all oracles held.
	FaultedSeeds int
	FaultedClean bool
	// FaultedViolated lists oracle names that failed in the faulted sweep
	// (diagnostic; empty when FaultedClean).
	FaultedViolated []string
}

// e18Shape is the common workload shape of every arm: few accounts and a
// strong skew concentrate updates on hot keys, which is where lock-mode
// choice decides between serialization and sharing.
const (
	e18Accounts = 8
	e18Txns     = 40
	e18Theta    = 0.9
)

// e18Schedule is the fault-free commutative mix every sweep starts from.
func e18Schedule(seed int64) explore.Schedule {
	return explore.Schedule{
		Protocol: explore.Proto3PC, Seed: seed,
		Accounts: e18Accounts, Txns: e18Txns,
		Workload:  explore.WorkloadCommutative,
		ZipfTheta: e18Theta,
	}
}

// e18Sweep runs one locking regime over the seeds and aggregates outcomes.
func e18Sweep(label string, seeds []int64, writeFraction float64) (E18Row, error) {
	t, err := explore.Sweep(seeds, func(_ int, seed int64) explore.Schedule {
		spec := e18Schedule(seed)
		spec.WriteFraction = writeFraction
		return spec
	})
	if err != nil {
		return E18Row{}, fmt.Errorf("e18: %s: %w", label, err)
	}
	row := E18Row{Label: label, Txns: e18Txns, Tally: t, Throughput: t.CommitsPerKTick()}
	if n := t.Committed + t.Aborted; n > 0 {
		row.ConflictRate = float64(t.Aborted) / float64(n)
	}
	return row, nil
}

// E18Commutativity runs movements 1 and 2 over the given seeds.
func E18Commutativity(seeds []int64) (*E18Result, error) {
	out := &E18Result{}
	var err error
	if out.Exclusive, err = e18Sweep("exclusive-writes", seeds, 1.0); err != nil {
		return nil, err
	}
	if out.Commutative, err = e18Sweep("inc-transfers", seeds, 0); err != nil {
		return nil, err
	}

	// Movement 2: the commutative mix survives a crash-and-recover inside
	// the design fault envelope with every oracle clean — committed
	// increments come back through the WAL's logical fold.
	faulted, err := explore.Sweep(seeds, func(_ int, seed int64) explore.Schedule {
		spec := e18Schedule(seed)
		spec.ReadFraction = 0.25
		spec.Horizon = 8000
		spec.Faults = []explore.Fault{
			{Kind: explore.FaultCrashAtTime, Site: 2, At: 620},
			{Kind: explore.FaultRecoverAtTime, Site: 2, At: 1900},
		}
		return spec
	})
	if err != nil {
		return nil, fmt.Errorf("e18: faulted: %w", err)
	}
	out.FaultedSeeds = faulted.Seeds
	out.FaultedViolated = faulted.Violated
	out.FaultedClean = len(faulted.Violated) == 0
	return out, nil
}

// E18Ablation is movement 3: the underlock mutant's verdict on the
// serializability gate over the witness shape (blind writes and increments
// on four hot accounts, seeds 0–29), with the gate on the unmutated copy as
// its control; its commcheck kill, on the same source, is in the catalogue.
func E18Ablation() ([]mutant.Verdict, error) {
	return mutant.Judge("underlock", "TestUnderlockWitnessShapeSerializable")
}
