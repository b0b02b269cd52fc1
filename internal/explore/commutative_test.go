package explore

import (
	"testing"
)

// TestCommutativeWorkloadClean: the commutative mix (zipfian
// increment-transfers plus reads) must pass every oracle on a fault-free
// run — in particular the serializability oracle, whose conflict graph
// deliberately draws no edge between commuting increments. If the
// mode-generalized edge rule were wrong in the permissive direction, the
// shared IncMode grants would surface as cycles here.
func TestCommutativeWorkloadClean(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(Schedule{
			Protocol: Proto3PC, Seed: seed,
			Workload: WorkloadCommutative, ZipfTheta: 0.9, ReadFraction: 0.25,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("seed %d: fault-free commutative run reported violations: %+v", seed, res.Violations)
		}
		if res.Stats.Committed == 0 {
			t.Errorf("seed %d: committed nothing", seed)
		}
	}
}

// TestCommutativeWorkloadCleanUnderFaults: a crash-and-recover inside the
// design fault envelope must leave all oracles clean on the commutative
// mix — committed increments survive recovery through the WAL's logical
// fold, which is exactly what the durability oracle re-derives.
func TestCommutativeWorkloadCleanUnderFaults(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(Schedule{
			Protocol: Proto3PC, Seed: seed,
			Workload: WorkloadCommutative, ZipfTheta: 0.9, ReadFraction: 0.25,
			Horizon: 8000,
			Faults: []Fault{
				{Kind: FaultCrashAtTime, Site: 2, At: 620},
				{Kind: FaultRecoverAtTime, Site: 2, At: 1900},
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("seed %d: crash+recover commutative run reported violations: %+v", seed, res.Violations)
		}
	}
}

// TestUnderlockWitnessShapeSerializable runs E18's witness shape —
// blind absolute writes mixed with increments on four hot accounts — and
// stops at the first oracle violation. Every seed is clean on the served
// engine; the underlock mutant (internal/mutant), whose Store.Put takes
// only the increment lock, fails it with the serializability oracle's
// evidence, and that failure is E18's ablation verdict.
func TestUnderlockWitnessShapeSerializable(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		res, err := Run(Schedule{
			Protocol: Proto3PC, Seed: seed, Accounts: 4, Txns: 24,
			Workload: WorkloadCommutative, ZipfTheta: 1.2, WriteFraction: 0.4,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Fatalf("seed %d: %s: %s", seed, v.Oracle, v.Detail)
		}
	}
}
