package experiments

import "testing"

// TestE18Commutativity pins the experiment's claims: the commutative
// regime beats the exclusive regime on conflict rate on the identical
// zipfian shape, and both correct regimes violate no oracle (including
// under crash faults). The underlock mutant's verdicts are internal/mutant's
// TestCatalogue.
func TestE18Commutativity(t *testing.T) {
	res, err := E18Commutativity([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exclusive.Violated) != 0 || len(res.Commutative.Violated) != 0 {
		t.Errorf("correct regimes violated oracles: exclusive=%v commutative=%v",
			res.Exclusive.Violated, res.Commutative.Violated)
	}
	if res.Exclusive.ConflictRate <= res.Commutative.ConflictRate {
		t.Errorf("conflict rate did not drop: exclusive %.3f vs commutative %.3f",
			res.Exclusive.ConflictRate, res.Commutative.ConflictRate)
	}
	if res.Commutative.Committed <= res.Exclusive.Committed {
		t.Errorf("commutative regime committed %d <= exclusive %d; sharing bought nothing",
			res.Commutative.Committed, res.Exclusive.Committed)
	}
	if res.Exclusive.Undecided != 0 || res.Commutative.Undecided != 0 {
		t.Errorf("fault-free sweeps left transactions undecided: %d/%d",
			res.Exclusive.Undecided, res.Commutative.Undecided)
	}
	if !res.FaultedClean {
		t.Errorf("faulted commutative sweep violated oracles: %v", res.FaultedViolated)
	}
}
