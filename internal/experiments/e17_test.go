package experiments

import (
	"testing"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/tpc"
	"speccat/internal/txn"
)

// TestE17TCPConformance is the wire conformance gate: the engines over
// real TCP loopback decide exactly as the deterministic replay of their
// own delivery trace, with byte-identical durable state, for both
// protocols. Run with -race this also proves the transport's delivery
// serialization under real connections.
func TestE17TCPConformance(t *testing.T) {
	rows, err := E17TCPConformance()
	if err != nil {
		t.Fatalf("E17: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("E17 rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if !row.ReplayAgree {
			t.Errorf("%s: replay decisions diverge from the wire run", row.Protocol)
		}
		if !row.DurableAgree {
			t.Errorf("%s: durable stores diverge from the wire run", row.Protocol)
		}
		if row.Decisions["t-commit"] != tpc.DecisionCommit {
			t.Errorf("%s: t-commit decided %v, want commit", row.Protocol, row.Decisions["t-commit"])
		}
		if row.Decisions["t-abort"] != tpc.DecisionAbort {
			t.Errorf("%s: t-abort decided %v, want abort", row.Protocol, row.Decisions["t-abort"])
		}
		if row.Messages == 0 || row.FramesSent == 0 {
			t.Errorf("%s: empty trace (%d messages, %d frames) — nothing crossed the wire", row.Protocol, row.Messages, row.FramesSent)
		}
	}
}

// TestE17PartitionMidPrepare kills one cohort's inbound side at the
// moment it votes — after the commit request reached it, before the
// prepare round can — then heals the partition and proves every node
// still converges on the same decision: the cohort's termination
// protocol keeps retrying across the reconnect until it learns the
// outcome. This is the paper's blocking-freedom claim exercised against
// a real network fault rather than a simulated one.
func TestE17PartitionMidPrepare(t *testing.T) {
	coordID := rt.NodeID(1)
	cohortIDs := []rt.NodeID{2, 3, 4}
	partitioned := rt.NodeID(3)
	// Real timeouts this time: timers drive recovery, so the phase
	// timeout must actually fire. 1ms ticks keep the schedule human-speed.
	cfg := tpc.Config{Protocol: tpc.ThreePhase, PhaseTimeout: 40}

	cl, err := newE17Cluster(append([]rt.NodeID{coordID}, cohortIDs...), time.Millisecond)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Close()

	coord, err := tpc.DeployCoordinator(cl.nets[coordID], coordID, cohortIDs, cfg)
	if err != nil {
		t.Fatalf("deploy coordinator: %v", err)
	}
	type decided struct {
		node rt.NodeID
		d    tpc.Decision
	}
	decCh := make(chan decided, 8)
	coord.OnDecide = func(txn string, d tpc.Decision) { decCh <- decided{coordID, d} }

	healed := make(chan struct{})
	for _, id := range cohortIDs {
		id := id
		h, err := tpc.DeployCohort(cl.nets[id], id, coordID, cfg)
		if err != nil {
			t.Fatalf("deploy cohort %d: %v", id, err)
		}
		h.OnDecide = func(txn string, d tpc.Decision) { decCh <- decided{id, d} }
		if id == partitioned {
			h.Vote = func(string, []byte) (bool, []byte) {
				// The vote handler runs mid-commit-request, strictly before
				// the prepare round: cut our inbound side right here.
				cl.nets[id].CloseInbound()
				// Heal from a separate goroutine after the partition has
				// outlived at least one phase timeout.
				go func() {
					time.Sleep(200 * time.Millisecond)
					if err := cl.nets[id].RestoreInbound(); err != nil {
						t.Errorf("RestoreInbound: %v", err)
					}
					close(healed)
				}()
				return true, nil
			}
		}
	}

	errCh := make(chan error, 1)
	cl.nets[coordID].After(coordID, 0, func() { errCh <- coord.Begin("t-part") })
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("begin timed out")
	}

	// All four nodes must decide, and identically, despite the partition.
	got := map[rt.NodeID]tpc.Decision{}
	deadline := time.After(30 * time.Second)
	for len(got) < len(cohortIDs)+1 {
		select {
		case d := <-decCh:
			got[d.node] = d.d
		case <-deadline:
			t.Fatalf("only %d/%d nodes decided before the deadline: %v", len(got), len(cohortIDs)+1, got)
		}
	}
	want := got[coordID]
	if want == tpc.DecisionNone {
		t.Fatalf("coordinator decided none: %v", got)
	}
	for id, d := range got {
		if d != want {
			t.Fatalf("decision split: node %d decided %v, coordinator %v (all: %v)", id, d, want, got)
		}
	}
	select {
	case <-healed:
	case <-time.After(10 * time.Second):
		t.Fatal("partition never healed")
	}
	// The partition was real: the coordinator's writer to the cut cohort
	// observed it (a drop on the severed connection or a reconnect after
	// healing).
	s := cl.nets[coordID].Stats(partitioned)
	if s.Dropped == 0 && s.Reconnects == 0 {
		t.Errorf("no drop or reconnect recorded against the partitioned cohort: %+v", s)
	}
}

// TestTCPStackSmoke runs the full txn/kvstore stack (master + 3 sites)
// over TCP loopback: funded accounts, transfer transactions, then the
// money-conservation invariant across the sites' committed stores. It is
// the in-process twin of the cmd/tpcserve e2e smoke.
func TestTCPStackSmoke(t *testing.T) {
	masterID := rt.NodeID(1)
	siteIDs := []rt.NodeID{2, 3, 4}
	cfg := tpc.Config{PhaseTimeout: 50_000}
	ids := append([]rt.NodeID{masterID}, siteIDs...)

	addrs, err := reserveLoopback(len(ids))
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	clusterMap := map[rt.NodeID]string{}
	for i, id := range ids {
		clusterMap[id] = addrs[i]
	}
	codec := tcp.NewCodec()
	if err := tpc.RegisterWire(codec); err != nil {
		t.Fatalf("tpc wire: %v", err)
	}
	if err := txn.RegisterWire(codec); err != nil {
		t.Fatalf("txn wire: %v", err)
	}
	nets := map[rt.NodeID]*tcp.Net{}
	for _, id := range ids {
		n, err := tcp.New(tcp.Options{Local: id, Cluster: clusterMap, Codec: codec, Tick: e16Tick, Delta: 10})
		if err != nil {
			t.Fatalf("transport %d: %v", id, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("start %d: %v", id, err)
		}
		defer n.Close()
		nets[id] = n
	}

	nets[masterID].AddNode(masterID, nil)
	master, err := txn.NewMasterOn(nets[masterID], masterID, siteIDs, cfg)
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	sites := map[rt.NodeID]*txn.Site{}
	for _, id := range siteIDs {
		nets[id].AddNode(id, nil)
		s, err := txn.NewShardedSiteOn(nets[id], id, masterID, siteIDs, cfg, 1)
		if err != nil {
			t.Fatalf("site %d: %v", id, err)
		}
		sites[id] = s
	}

	// submit dispatches one transaction onto the master's event loop and
	// waits for its result.
	submit := func(name string, ops []txn.Op) *txn.Result {
		t.Helper()
		resCh := make(chan *txn.Result, 1)
		errCh := make(chan error, 1)
		nets[masterID].After(masterID, 0, func() {
			errCh <- master.Submit(name, ops, func(r *txn.Result) { resCh <- r })
		})
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("submit %s: dispatch timed out", name)
		}
		select {
		case r := <-resCh:
			return r
		case <-time.After(30 * time.Second):
			t.Fatalf("submit %s: no result", name)
			return nil
		}
	}

	// Fund six accounts with 100 each, placed by the shared hash.
	accounts := []string{"acct0", "acct1", "acct2", "acct3", "acct4", "acct5"}
	var fund []txn.Op
	for _, a := range accounts {
		fund = append(fund, txn.Op{Site: txn.SiteFor(siteIDs, a), Key: a, Value: "100", IsWrite: true})
	}
	if r := submit("t-fund", fund); r.Decision != tpc.DecisionCommit {
		t.Fatalf("funding decided %v, want commit", r.Decision)
	}

	// Transfers: read both balances, then write the moved amounts. The
	// master serializes one transaction at a time here; cross-wire
	// concurrency is the transport's to handle.
	committed := 0
	for i := 0; i < 10; i++ {
		from, to := accounts[i%len(accounts)], accounts[(i+1)%len(accounts)]
		name := "t-xfer-" + string(rune('0'+i))
		ops := []txn.Op{
			{Site: txn.SiteFor(siteIDs, from), Key: from},
			{Site: txn.SiteFor(siteIDs, to), Key: to},
		}
		r := submit(name, ops)
		if r.Decision != tpc.DecisionCommit {
			continue
		}
		fromBal := atoiLoose(r.Reads[readKey(siteIDs, from)])
		toBal := atoiLoose(r.Reads[readKey(siteIDs, to)])
		wr := []txn.Op{
			{Site: txn.SiteFor(siteIDs, from), Key: from, Value: itoa(fromBal - 10), IsWrite: true},
			{Site: txn.SiteFor(siteIDs, to), Key: to, Value: itoa(toBal + 10), IsWrite: true},
		}
		if r := submit(name+"-w", wr); r.Decision == tpc.DecisionCommit {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no transfer committed")
	}

	// Quiesce every loop, then check conservation across committed state.
	for _, n := range nets {
		n.Close()
	}
	total := 0
	for _, a := range accounts {
		total += atoiLoose(sites[txn.SiteFor(siteIDs, a)].Store.Read(a))
	}
	if want := 600; total != want {
		t.Fatalf("money not conserved over TCP: total = %d, want %d", total, want)
	}
}

// readKey mirrors the master's "site/key" read-result keying.
func readKey(siteIDs []rt.NodeID, key string) string {
	return itoa(int(txn.SiteFor(siteIDs, key))) + "/" + key
}

func atoiLoose(s string) int {
	n, neg := 0, false
	for i, ch := range s {
		if i == 0 && ch == '-' {
			neg = true
			continue
		}
		if ch < '0' || ch > '9' {
			return 0
		}
		n = n*10 + int(ch-'0')
	}
	if neg {
		return -n
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
