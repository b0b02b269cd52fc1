package explore

import (
	"testing"

	"speccat/internal/rt/tcp"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/tpc"
	"speccat/internal/txn"
)

// TestDurabilityOracleConvictsMissingEffects hands the oracle the state
// the engines can no longer produce: a site that durably decided commit
// for a transaction whose writes it was sent, with nothing applied and an
// empty WAL. The decision is real — a commit outcome reaching a cohort in
// q, as a recovering coordinator's re-announcement does — and is innocent
// exactly when the site was sent no work.
func TestDurabilityOracleConvictsMissingEffects(t *testing.T) {
	net := simnet.New(sim.NewScheduler(1), simnet.DefaultOptions())
	cluster, err := txn.NewShardedClusterOn(net, 2, tpc.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	codec := tcp.NewCodec()
	if err := tpc.RegisterWire(codec); err != nil {
		t.Fatal(err)
	}
	commit, err := codec.Decode(tpc.KindCommit, []byte(`{"Txn":"t"}`))
	if err != nil {
		t.Fatal(err)
	}
	const site = simnet.NodeID(2)
	if err := net.Deliver(simnet.Message{From: 1, To: site, Kind: tpc.KindCommit, Payload: commit}); err != nil {
		t.Fatal(err)
	}
	if d := cluster.Sites[site].Decision("t"); d != tpc.DecisionCommit {
		t.Fatalf("staging: site decided %s, want commit", d)
	}

	r := &runner{net: net, cluster: cluster, submitted: []string{"t"}}
	if vs := r.checkDurability(); len(vs) != 0 {
		t.Fatalf("a site that was sent no work convicted: %+v", vs)
	}
	sent := []*runner{
		{writes: map[string]map[simnet.NodeID]map[string]string{"t": {site: {"x": "1"}}}},
		{classed: map[string]map[simnet.NodeID][]classedOp{"t": {site: {{key: "n", op: txn.ClassInc, arg: "1"}}}}},
	}
	for i, r := range sent {
		r.net, r.cluster, r.submitted = net, cluster, []string{"t"}
		vs := r.checkDurability()
		if len(vs) != 1 || vs[0].Oracle != OracleDurability || vs[0].Txn != "t" || vs[0].Site != site {
			t.Errorf("case %d: violations %+v, want one durability conviction of t at site %d", i, vs, site)
		}
	}
	if err := net.Crash(site); err != nil {
		t.Fatal(err)
	}
	if vs := sent[0].checkDurability(); len(vs) != 0 {
		t.Errorf("a down site is judged by what its restart does, not convicted: %+v", vs)
	}
}

// TestDroppedStartworkNeverCommits drops, one run each, every post-setup
// startwork of seeds 1–20. A site that never got its work votes no, so no
// run may commit a transaction with that site's writes missing (the
// durability oracle above), split it, or break serializability; progress
// is not claimed under drops. The same probes show the default schedule
// exercises participant scoping at all: its transfers touch two accounts,
// so some commit protocol spans fewer than all three sites.
func TestDroppedStartworkNeverCommits(t *testing.T) {
	runs, scoped := 0, false
	for seed := int64(1); seed <= 20; seed++ {
		base := Schedule{Protocol: Proto3PC, Seed: seed}
		probe, log, err := RunLogged(base)
		if err != nil {
			t.Fatal(err)
		}
		reqs := 0
		for _, s := range log {
			if s.Seq < probe.Stats.SetupSends {
				continue
			}
			if s.Kind == tpc.KindCommitReq {
				reqs++
			}
			if s.Kind != "txn.startwork" {
				continue
			}
			spec := base
			spec.Horizon = probe.Stats.End + horizonMargin
			spec.Faults = []Fault{{Kind: FaultDropSend, Seq: s.Seq}}
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			runs++
			for _, v := range res.Violations {
				if v.Oracle != OracleProgress {
					t.Errorf("seed %d, startwork #%d to site %d dropped: %+v", seed, s.Seq, s.To, v)
				}
			}
		}
		scoped = scoped || reqs < probe.Schedule.Sites*probe.Schedule.Txns
	}
	if runs < 200 {
		t.Errorf("only %d dropped-startwork runs; the sweep lost its coverage", runs)
	}
	if !scoped {
		t.Error("every commit protocol of every probe spanned all sites: the default schedule does not explore scoping")
	}
}
