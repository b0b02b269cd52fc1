package txn

import (
	"testing"

	"speccat/internal/tpc"
)

func TestReadResultsReported(t *testing.T) {
	c, err := NewCluster(10, 2, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	submitAndRun(t, c, "seed", []Op{{Site: s2, Key: "x", Value: "hello", IsWrite: true}})
	res := submitAndRun(t, c, "read", []Op{{Site: s2, Key: "x"}})
	want := map[string]string{}
	for k, v := range res.Reads {
		want[k] = v
	}
	if len(res.Reads) != 1 {
		t.Fatalf("reads = %v", res.Reads)
	}
	for _, v := range res.Reads {
		if v != "hello" {
			t.Fatalf("read value = %q", v)
		}
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	c, err := NewCluster(11, 2, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	ops := []Op{{Site: s2, Key: "x", Value: "1", IsWrite: true}}
	mustOK(t, c.Master.Submit("dup", ops, nil))
	if err := c.Master.Submit("dup", ops, nil); err == nil {
		t.Fatal("duplicate submit accepted")
	}
}

func TestEmptyTransactionCommits(t *testing.T) {
	c, err := NewCluster(12, 2, tpc.Config{})
	mustOK(t, err)
	res := submitAndRun(t, c, "empty", nil)
	if res.Decision != tpc.DecisionCommit {
		t.Fatalf("empty txn = %s", res.Decision)
	}
}

func TestMasterDecisionAccessor(t *testing.T) {
	c, err := NewCluster(13, 2, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	submitAndRun(t, c, "t", []Op{{Site: s2, Key: "x", Value: "1", IsWrite: true}})
	if c.Master.Decision("t") != tpc.DecisionCommit {
		t.Fatalf("Decision = %s", c.Master.Decision("t"))
	}
	if c.Master.Decision("ghost") != tpc.DecisionNone {
		t.Fatal("ghost decision")
	}
}

func TestLockConflictAcrossTransactions(t *testing.T) {
	// Two transactions writing the same key back-to-back within one
	// scheduler run: the second site-branch hits the still-held lock of
	// the first (decisions propagate with delay), fails its work, and the
	// whole transaction aborts — then succeeds on retry after quiescence.
	c, err := NewCluster(14, 2, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	var d1, d2 tpc.Decision
	mustOK(t, c.Master.Submit("w1", []Op{{Site: s2, Key: "hot", Value: "1", IsWrite: true}},
		func(r *Result) { d1 = r.Decision }))
	mustOK(t, c.Master.Submit("w2", []Op{{Site: s2, Key: "hot", Value: "2", IsWrite: true}},
		func(r *Result) { d2 = r.Decision }))
	c.Run()
	if d1 == tpc.DecisionNone || d2 == tpc.DecisionNone {
		t.Fatal("transactions unresolved")
	}
	// At least one commits; both may, if the first released in time.
	if d1 != tpc.DecisionCommit && d2 != tpc.DecisionCommit {
		t.Fatalf("both failed: %s, %s", d1, d2)
	}
	// No locks leak either way.
	if c.Sites[s2].Store.OpenTxns() != 0 {
		t.Fatal("locks leaked")
	}
}

func TestTotalOfIgnoresGarbage(t *testing.T) {
	if atoi("12") != 12 || atoi("-3") != -3 || atoi("x") != 0 || atoi("") != 0 {
		t.Fatal("atoi helper broken")
	}
}

func TestWorkTimeoutWhenSiteSilent(t *testing.T) {
	// A partitioned site never gets its commit request, so it never votes:
	// the coordinator's vote timeout aborts the transaction.
	c, err := NewCluster(15, 3, tpc.Config{})
	mustOK(t, err)
	s2, s3 := c.SiteIDs[0], c.SiteIDs[1]
	c.Net.Partition(c.MasterID, s3)
	res := submitAndRun(t, c, "t", []Op{
		{Site: s2, Key: "x", Value: "1", IsWrite: true},
		{Site: s3, Key: "y", Value: "2", IsWrite: true},
	})
	if res.Decision != tpc.DecisionAbort {
		t.Fatalf("decision = %s, want abort (vote timeout)", res.Decision)
	}
	if c.Sites[s2].Store.Read("x") != "" {
		t.Fatal("partial write leaked")
	}
}
