package txn

import (
	"strings"
	"testing"

	"speccat/internal/tpc"
)

// TestDecidedNameStaysTaken pins what the master keeps of a decided
// transaction: its pending entry becomes the one decided marker, the
// submitter hears the outcome once, and Submit refuses the name — also
// after a simulated coordinator restart, which re-announces both outcomes.
func TestDecidedNameStaysTaken(t *testing.T) {
	c, err := NewCluster(1, 2, tpc.Config{})
	mustOK(t, err)
	m, s2 := c.Master, c.SiteIDs[0]
	want := map[string]tpc.Decision{"tc": tpc.DecisionCommit, "ta": tpc.DecisionAbort}
	ops := map[string][]Op{
		"tc": {{Site: s2, Key: "x", Value: "1", IsWrite: true}},
		"ta": {{Site: s2, Key: "y", Value: "1", Class: "no such class"}}, // the work fails: abort
	}
	told := map[string]int{}
	for _, name := range []string{"tc", "ta"} {
		mustOK(t, m.Submit(name, ops[name], func(r *Result) {
			told[name]++
			if r.Decision != want[name] {
				t.Errorf("%s decided %v, want %v", name, r.Decision, want[name])
			}
		}))
		c.Run()
	}
	check := func(when string) {
		t.Helper()
		for name := range want {
			err := m.Submit(name, ops[name], func(*Result) { told[name]++ })
			if err == nil || !strings.Contains(err.Error(), "already submitted") {
				t.Errorf("%s: Submit %s again = %v, want already submitted", when, name, err)
			}
			if told[name] != 1 {
				t.Errorf("%s: submitter of %s told %d times, want once", when, name, told[name])
			}
		}
		if len(m.pending) != len(want) {
			t.Errorf("%s: %d pending entries, want %d", when, len(m.pending), len(want))
		}
		for name, p := range m.pending {
			if p != m.decided {
				t.Errorf("%s: pending entry of %s is not the decided marker", when, name)
			}
		}
	}
	check("decided")
	// The abort was decided from w and never forced, so the restarted
	// coordinator may not know it; the master's marker still holds the name.
	mustOK(t, c.Net.Crash(c.MasterID))
	mustOK(t, c.Net.Recover(c.MasterID))
	c.Run()
	check("after a restart")
}
