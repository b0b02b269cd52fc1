package experiments

import "testing"

// TestE19ShardedCommit pins the experiment's claims: the cross-partition
// workload stays oracle-clean and fully decided under both store layouts,
// each arm actually pays batched syncs (and its per-commit fsync bill
// stays within the divergence rule's happy-path budget), and the
// crash-at-batch-boundary sweep recovers with every oracle clean.
func TestE19ShardedCommit(t *testing.T) {
	res, err := E19ShardedCommit([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []E19Row{res.Unsharded, res.Sharded} {
		if len(row.Violated) != 0 {
			t.Errorf("%s: violated oracles %v", row.Label, row.Violated)
		}
		if row.Committed == 0 {
			t.Errorf("%s: nothing committed", row.Label)
		}
		if row.Undecided != 0 {
			t.Errorf("%s: %d transactions undecided in a fault-free sweep", row.Label, row.Undecided)
		}
		// The divergence rule's happy-path bill is 1 coordinator sync plus 2
		// per touched cohort — at most 7 per commit on 3 sites; aborts and
		// termination rounds can only add a bounded constant on top.
		if row.SyncsPerCommit <= 0 || row.SyncsPerCommit > 9 {
			t.Errorf("%s: fsync bill out of range: %.2f syncs/commit", row.Label, row.SyncsPerCommit)
		}
	}
	if !res.CrashClean {
		t.Errorf("crash-at-sync sweep violated oracles: %v", res.CrashViolated)
	}
	if res.CrashSeeds == 0 {
		t.Error("crash sweep ran no seeds")
	}
}
