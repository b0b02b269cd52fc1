package tpc

import (
	"strings"
	"testing"

	"speccat/internal/simnet"
)

// TestDecidedTransactionKeepsOnlyItsDecision pins what a coordinator keeps
// of a decided transaction: no per-transaction state, only the decision —
// which StateOf reads as c1/a1 — and the name stays taken, so a second
// BeginWith is refused before anything is sent.
func TestDecidedTransactionKeepsOnlyItsDecision(t *testing.T) {
	for _, proto := range []Protocol{TwoPhase, ThreePhase} {
		g, err := NewGroup(1, 3, Config{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range g.Cohorts {
			h.Vote = func(txn string, _ []byte) (bool, []byte) { return txn != "ta", nil }
		}
		for _, txn := range []string{"tc", "ta"} {
			if err := g.Run(txn); err != nil {
				t.Fatal(err)
			}
		}
		c := g.Coordinator
		if len(c.txns) != 0 {
			t.Errorf("%v: coordinator keeps %d transaction records, want 0", proto, len(c.txns))
		}
		want := map[string]struct {
			d Decision
			s State
		}{"tc": {DecisionCommit, StateCommitted}, "ta": {DecisionAbort, StateAborted}}
		sends := 0
		g.Net.OnSend = func(uint64, simnet.Message) simnet.SendFault {
			sends++
			return simnet.SendFault{}
		}
		for txn, w := range want {
			if d, s := c.Decision(txn), c.StateOf(txn); d != w.d || s != w.s {
				t.Errorf("%v %s: decision %v in %v, want %v in %v", proto, txn, d, s, w.d, w.s)
			}
			err := c.BeginWith(txn, g.CohortIDs, nil)
			if err == nil || !strings.Contains(err.Error(), "already begun") {
				t.Errorf("%v %s: BeginWith again = %v, want already begun", proto, txn, err)
			}
			if d := c.Decision(txn); d != w.d {
				t.Errorf("%v %s: decision became %v after the refused BeginWith", proto, txn, d)
			}
		}
		g.Net.Scheduler().Run(0)
		if sends != 0 || len(c.txns) != 0 {
			t.Errorf("%v: refused BeginWith sent %d messages and left %d records", proto, sends, len(c.txns))
		}
	}
}
