package tpc

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/stable"
)

// parkedNet is the simulator with the serving path's stores: each node's
// stable store is a file journal whose SyncThen callbacks are handed to
// the test instead of an event loop, so a forced announcement stays
// pending until the test releases it. The simulator's in-memory stores
// run every callback inline and never show that window.
type parkedNet struct {
	*simnet.Network
	stores map[simnet.NodeID]*stable.Store
	parked chan func()
}

func (p *parkedNet) Store(id simnet.NodeID) (*stable.Store, error) { return p.stores[id], nil }

// newParkedGroup deploys a coordinator and two cohorts over parkedNet and
// records every message the network takes.
func newParkedGroup(t *testing.T, cfg Config) (*parkedNet, *Deployment, *[]simnet.Message) {
	t.Helper()
	net := simnet.New(sim.NewScheduler(1), simnet.DefaultOptions())
	// The buffer holds more callbacks than a scenario parks, so a syncer
	// never blocks on a test that stopped releasing them.
	p := &parkedNet{Network: net, stores: map[simnet.NodeID]*stable.Store{}, parked: make(chan func(), 64)}
	d, err := Deploy(p, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, id := range net.Nodes() {
		st, err := stable.OpenFile(filepath.Join(dir, fmt.Sprint(id)))
		if err != nil {
			t.Fatal(err)
		}
		st.SetSyncDispatch(func(fn func()) { p.parked <- fn })
		t.Cleanup(func() { st.Close() })
		p.stores[id] = st
	}
	var sent []simnet.Message
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		sent = append(sent, m)
		return simnet.SendFault{}
	}
	return p, d, &sent
}

// release runs the next parked callback on the test goroutine, the
// node's event loop here.
func (p *parkedNet) release(t *testing.T) {
	t.Helper()
	select {
	case fn := <-p.parked:
		fn()
	case <-time.After(10 * time.Second): //lint:allow nowallclock watchdog on a real fsync
		t.Fatal("no callback was parked")
	}
}

func (p *parkedNet) deliver(t *testing.T, from, to simnet.NodeID, kind string, payload any) {
	t.Helper()
	if err := p.Deliver(simnet.Message{From: from, To: to, Kind: kind, Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

// kinds lists the kinds of the messages sent since mark.
func kinds(sent []simnet.Message, mark int) []string {
	var out []string
	for _, m := range sent[mark:] {
		out = append(out, m.Kind)
	}
	return out
}

// TestForcedAnnouncementsWaitForTheFsync holds the fsync of a forced site
// open and checks that nothing depending on it leaves before it settles:
// a cohort that decided abort from p answers a state request only after
// its decision's callback ran, and a 2PC coordinator announces a commit
// decided from w — OnDecide and tpc.commit — only after its own.
func TestForcedAnnouncementsWaitForTheFsync(t *testing.T) {
	decidedReplyWaits(t)
	commitFromWaitWaits(t)
}

// decidedReplyWaits: cohort 2 prepares, is told to abort — a decision
// recovery from p would contradict — and is asked for its state by 3.
func decidedReplyWaits(t *testing.T) {
	p, d, sent := newParkedGroup(t, Config{})
	const coord, cohort, peer = 1, 2, 3
	p.deliver(t, coord, cohort, KindCommitReq, txnMsg{Txn: "t", Participants: []simnet.NodeID{cohort, peer}})
	p.release(t) // the yes-vote
	p.deliver(t, coord, cohort, KindPrepare, txnMsg{Txn: "t"})
	p.release(t) // the ack
	mark := len(*sent)
	p.deliver(t, coord, cohort, KindAbort, txnMsg{Txn: "t"})
	if s := d.Cohorts[cohort].StateOf("t"); s != StateAborted {
		t.Fatalf("cohort in %s after the abort, want a", s)
	}
	p.deliver(t, peer, cohort, KindStateReq, txnMsg{Txn: "t"})
	if got := kinds(*sent, mark); len(got) != 0 {
		t.Fatalf("cohort sent %v while its abort from p awaits its fsync", got)
	}
	p.release(t) // the abort's force
	if got := kinds(*sent, mark); len(got) != 0 {
		t.Fatalf("cohort sent %v before the reply's own callback ran", got)
	}
	p.release(t) // the reply
	if got := kinds(*sent, mark); len(got) != 1 || got[0] != KindAbort || (*sent)[mark].To != peer {
		t.Errorf("cohort sent %v, want one %s to %d", got, KindAbort, peer)
	}
}

// commitFromWaitWaits: a 2PC coordinator forces w1 before its commit
// requests, and its commit decided from w before anyone learns it.
func commitFromWaitWaits(t *testing.T) {
	p, d, sent := newParkedGroup(t, Config{Protocol: TwoPhase})
	c := d.Coordinator
	var decided []Decision
	c.OnDecide = func(_ string, dec Decision) { decided = append(decided, dec) }
	if err := c.Begin("t"); err != nil {
		t.Fatal(err)
	}
	if got := kinds(*sent, 0); len(got) != 0 {
		t.Fatalf("coordinator sent %v before its w1 was forced", got)
	}
	p.release(t) // the forced w1
	mark := len(*sent)
	for _, id := range d.CohortIDs {
		p.deliver(t, id, d.CoordID, KindVoteYes, txnMsg{Txn: "t"})
	}
	if s := c.StateOf("t"); s != StateCommitted {
		t.Fatalf("coordinator in %s after every yes-vote, want c", s)
	}
	if got := kinds(*sent, mark); len(got) != 0 || len(decided) != 0 {
		t.Fatalf("coordinator sent %v and decided %v while its commit from w awaits its fsync", got, decided)
	}
	p.release(t) // the commit's force
	if got := kinds(*sent, mark); len(got) != len(d.CohortIDs) || got[0] != KindCommit || got[1] != KindCommit {
		t.Errorf("coordinator sent %v, want %s to every cohort", got, KindCommit)
	}
	if len(decided) != 1 || decided[0] != DecisionCommit {
		t.Errorf("OnDecide saw %v, want [commit]", decided)
	}
}
