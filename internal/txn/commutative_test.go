package txn

import (
	"testing"

	"speccat/internal/kvstore"
	"speccat/internal/tpc"
)

// TestCommutativeOpsRoundTrip pins the classed-operation path end to
// end: increments, appends and set-inserts flow master → cohort →
// kvstore under their derived lock modes and commit with the canonical
// encodings.
func TestCommutativeOpsRoundTrip(t *testing.T) {
	c, err := NewCluster(11, 2, tpc.Config{})
	mustOK(t, err)
	s2, s3 := c.SiteIDs[0], c.SiteIDs[1]
	res := submitAndRun(t, c, "t1", []Op{
		{Site: s2, Key: "ctr", Value: "5", Class: ClassInc},
		{Site: s2, Key: "lst", Value: "b", Class: ClassAppend},
		{Site: s3, Key: "set", Value: "a", Class: ClassSetInsert},
	})
	if res.Decision != tpc.DecisionCommit {
		t.Fatalf("decision = %s", res.Decision)
	}
	res = submitAndRun(t, c, "t2", []Op{
		{Site: s2, Key: "ctr", Value: "-2", Class: ClassInc},
		{Site: s2, Key: "lst", Value: "a", Class: ClassAppend},
		{Site: s3, Key: "set", Value: "a", Class: ClassSetInsert},
	})
	if res.Decision != tpc.DecisionCommit {
		t.Fatalf("decision = %s", res.Decision)
	}
	if got := c.Sites[s2].Store.Read("ctr"); got != "3" {
		t.Fatalf("ctr = %q, want 3", got)
	}
	if got := c.Sites[s2].Store.Read("lst"); got != "a,b" {
		t.Fatalf("lst = %q, want a,b", got)
	}
	if got := c.Sites[s3].Store.Read("set"); got != "a" {
		t.Fatalf("set = %q, want a", got)
	}
}

// TestConcurrentIncrementsCommitTogether pins lock sharing across
// transactions at the cluster level: two transactions incrementing one
// key are both in flight before the scheduler runs, neither hits
// ErrConflict, and both commit.
func TestConcurrentIncrementsCommitTogether(t *testing.T) {
	c, err := NewCluster(12, 1, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	var r1, r2 *Result
	mustOK(t, c.Master.Submit("t1", []Op{{Site: s2, Key: "ctr", Value: "10", Class: ClassInc}}, func(r *Result) { r1 = r }))
	mustOK(t, c.Master.Submit("t2", []Op{{Site: s2, Key: "ctr", Value: "100", Class: ClassInc}}, func(r *Result) { r2 = r }))
	c.Run()
	if r1 == nil || r2 == nil {
		t.Fatal("transactions never completed")
	}
	if r1.Decision != tpc.DecisionCommit || r2.Decision != tpc.DecisionCommit {
		t.Fatalf("decisions = %s, %s; commuting increments must not conflict", r1.Decision, r2.Decision)
	}
	if got := c.Sites[s2].Store.Read("ctr"); got != "110" {
		t.Fatalf("ctr = %q, want 110", got)
	}
}

// TestUnknownClassVotesNo pins the failure path: a bogus class fails the
// work phase, so the protocol decides abort uniformly.
func TestUnknownClassVotesNo(t *testing.T) {
	c, err := NewCluster(13, 1, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	res := submitAndRun(t, c, "t1", []Op{{Site: s2, Key: "x", Value: "1", Class: "bogus"}})
	if res.Decision != tpc.DecisionAbort {
		t.Fatalf("decision = %s, want abort", res.Decision)
	}
	if c.Sites[s2].Store.OpenTxns() != 0 {
		t.Fatal("failed branch left open")
	}
}

// TestClassedOpsSurviveCrashRecovery pins logical redo through the full
// stack: a committed increment survives a site crash via the WAL's
// operation fold.
func TestClassedOpsSurviveCrashRecovery(t *testing.T) {
	c, err := NewCluster(15, 1, tpc.Config{})
	mustOK(t, err)
	s2 := c.SiteIDs[0]
	submitAndRun(t, c, "t1", []Op{{Site: s2, Key: "ctr", Value: "42", Class: ClassInc}})
	st, err := c.Net.Store(s2)
	mustOK(t, err)
	store, err := kvstore.Open(st)
	mustOK(t, err)
	if got := store.Read("ctr"); got != "42" {
		t.Fatalf("recovered ctr = %q, want 42", got)
	}
}
