package explore

import (
	"testing"

	"speccat/internal/simnet"
	"speccat/internal/tpc"
)

// TestAbortFromPreparedIsForced stages the one schedule that reaches the
// coordinator's abort from p with a crash before that abort is on disk,
// aiming each fault at a protocol event of the run before it. The single
// transaction's last ack is dropped, so the coordinator's p1 timer aborts
// a transaction every cohort holds prepared; the coordinator is crashed at
// the second send of its abort fan-out, after one cohort has aborted, and
// restarted 200 ticks later. A coordinator that announced the abort before
// forcing it restarts from p and re-announces commit to the other cohort:
// the transaction splits. The served coordinator forces the abort first
// and re-announces it.
func TestAbortFromPreparedIsForced(t *testing.T) {
	spec := Schedule{Protocol: Proto3PC, Seed: 1, Sites: 3, Accounts: 8, Txns: 1, Horizon: 4000}
	// sends returns the post-setup sends of kind from sender from (0: any
	// sender) in spec's run.
	sends := func(kind string, from simnet.NodeID) []SendInfo {
		t.Helper()
		res, log, err := RunLogged(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []SendInfo
		for _, s := range log {
			if s.Seq >= res.Stats.SetupSends && s.Kind == kind && (from == 0 || s.From == from) {
				out = append(out, s)
			}
		}
		return out
	}
	acks := sends(tpc.KindAck, 0)
	if len(acks) < 2 {
		t.Fatalf("staging: the transaction spans %d acks, want at least two cohorts", len(acks))
	}
	spec.Faults = []Fault{{Kind: FaultDropSend, Seq: acks[len(acks)-1].Seq}}
	aborts := sends(tpc.KindAbort, 1)
	if len(aborts) < 2 {
		t.Fatalf("staging: the coordinator sent %d aborts after the dropped ack, want its fan-out", len(aborts))
	}
	crashed := aborts[1]
	spec.Faults = append(spec.Faults,
		Fault{Kind: FaultCrashAtSend, Seq: crashed.Seq},
		Fault{Kind: FaultRecoverAtTime, Site: crashed.From, At: crashed.At + 200})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s: %s", v.Oracle, v.Detail)
	}
}
