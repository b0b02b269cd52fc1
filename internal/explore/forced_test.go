package explore

import (
	"testing"

	"speccat/internal/tpc"
)

// TestAbortFromPreparedIsForced stages the one schedule that reaches the
// coordinator's abort from p with a crash before that abort is on disk.
// The last ack of the single transaction is dropped (send #32), so the
// coordinator's p1 timer aborts a transaction every cohort holds prepared;
// the coordinator is crashed at the second send of its abort fan-out
// (send #34), after one cohort has aborted, and restarted 200 ticks later.
// A coordinator that announced the abort before forcing it restarts from p
// and re-announces commit to the other cohort: the transaction splits. The
// served coordinator forces the abort first and re-announces it.
func TestAbortFromPreparedIsForced(t *testing.T) {
	spec := Schedule{Protocol: Proto3PC, Seed: 1, Sites: 3, Accounts: 8, Txns: 1, Horizon: 4000,
		Faults: []Fault{{Kind: FaultDropSend, Seq: 32}, {Kind: FaultCrashAtSend, Seq: 34}}}
	_, log, err := RunLogged(spec)
	if err != nil {
		t.Fatal(err)
	}
	sent := map[uint64]SendInfo{}
	for _, s := range log {
		sent[s.Seq] = s
	}
	crashed := sent[34]
	if sent[32].Kind != tpc.KindAck || sent[33].Kind != tpc.KindAbort || crashed.Kind != tpc.KindAbort || sent[33].From != crashed.From {
		t.Fatalf("sends #32-#34 must be the last ack and the coordinator's two aborts: %+v %+v %+v", sent[32], sent[33], crashed)
	}
	spec.Faults = append(spec.Faults, Fault{Kind: FaultRecoverAtTime, Site: crashed.From, At: crashed.At + 200})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s: %s", v.Oracle, v.Detail)
	}
}
