package txn

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/stable"
	"speccat/internal/tpc"
	"speccat/internal/wal"
)

// Constructing an engine is recovering it: these tests build engines over
// stores a killed process left behind (seeded by hand in the on-disk
// formats: "tpc/<txn>/state", "tpc/<txn>/decision", WAL records) and
// require what a simulated crash+recover of the same store would yield.

const (
	master = simnet.NodeID(1)
	siteA  = simnet.NodeID(2)
	siteB  = simnet.NodeID(3)
)

var restartKeys = []string{"k0", "k1", "k2", "k3", "k4", "k5"}

// usedNet registers the three nodes and lets seed fill their stable
// stores before any engine exists.
func usedNet(t *testing.T, seed func(stores map[simnet.NodeID]*stable.Store)) *simnet.Network {
	t.Helper()
	net := simnet.New(sim.NewScheduler(1), simnet.DefaultOptions())
	stores := map[simnet.NodeID]*stable.Store{}
	for _, id := range []simnet.NodeID{master, siteA, siteB} {
		stores[id] = net.AddNode(id, nil)
	}
	seed(stores)
	return net
}

// construct builds the master and both sites over whatever net's stores
// hold — what three restarted tpcserve processes do.
func construct(net *simnet.Network, cfg tpc.Config, shards int) (*Cluster, error) {
	c := &Cluster{Net: net, MasterID: master, SiteIDs: []simnet.NodeID{siteA, siteB}, Sites: map[simnet.NodeID]*Site{}}
	var err error
	if c.Master, err = NewMasterOn(net, master, c.SiteIDs, cfg); err != nil {
		return nil, err
	}
	for _, id := range c.SiteIDs {
		if c.Sites[id], err = NewShardedSiteOn(net, id, master, c.SiteIDs, cfg, shards); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// reconstruct is a process restart of crashed node id: the node comes back
// with nothing but its store, and a new engine is constructed over it.
func reconstruct(t *testing.T, c *Cluster, id simnet.NodeID, cfg tpc.Config, shards int) {
	t.Helper()
	mustOK(t, c.Net.SetRecover(id, func() error { return nil }))
	mustOK(t, c.Net.Recover(id))
	var err error
	if id == c.MasterID {
		c.Master, err = NewMasterOn(c.Net, id, c.SiteIDs, cfg)
	} else {
		c.Sites[id], err = NewShardedSiteOn(c.Net, id, c.MasterID, c.SiteIDs, cfg, shards)
	}
	mustOK(t, err)
}

func putState(st *stable.Store, txn, state string) { st.Put("tpc/"+txn+"/state", []byte(state)) }

// seedBranch leaves txn's branch in doubt on st: a persisted protocol
// state, begin and update records for every restart key, no outcome.
func seedBranch(t *testing.T, st *stable.Store, txn, state string) {
	t.Helper()
	putState(st, txn, state)
	l, db := wal.New(st), map[string]string{}
	mustOK(t, l.Begin(txn))
	for _, k := range restartKeys {
		mustOK(t, l.LoggedUpdate(txn, db, k, "v-"+k))
	}
}

func noneActive(t *testing.T, st *stable.Store) {
	t.Helper()
	active, err := wal.Active(st)
	mustOK(t, err)
	if len(active) != 0 {
		t.Fatalf("in-doubt branches after construction: %v", active)
	}
}

func TestConstructionRecovers(t *testing.T) {
	for _, proto := range []tpc.Protocol{tpc.ThreePhase, tpc.TwoPhase} {
		for _, shards := range []int{1, 4} {
			cfg := tpc.Config{Protocol: proto}
			t.Run(fmt.Sprintf("%s/shards=%d", proto, shards), func(t *testing.T) {
				t.Run("cohort in p commits", func(t *testing.T) { cohortPrepared(t, cfg, shards) })
				t.Run("cohort in w aborts", func(t *testing.T) { cohortWaiting(t, cfg, shards) })
				t.Run("coordinator in w and p", func(t *testing.T) { coordinatorUndecided(t, cfg, shards) })
				t.Run("corrupt state refuses", func(t *testing.T) { corruptState(t, cfg, shards) })
				t.Run("decided history costs no sync", func(t *testing.T) { decidedHistory(t, cfg, shards) })
				t.Run("lost work votes no", func(t *testing.T) { lostWork(t, cfg, shards) })
				t.Run("lost startwork votes no", func(t *testing.T) { lostStartwork(t, cfg, shards) })
				t.Run("refused startwork aborts", func(t *testing.T) { refusedStartwork(t, cfg, shards) })
				t.Run("master crashed mid-submit aborts on recovery", func(t *testing.T) { crashedMidSubmit(t, cfg, shards) })
				if proto == tpc.TwoPhase {
					t.Run("new master unblocks cohorts", func(t *testing.T) { newMasterUnblocks(t, cfg, shards) })
					t.Run("master killed in w1 unblocks cohorts", func(t *testing.T) { masterKilledInW1(t, cfg, shards) })
				}
			})
		}
	}
}

// (a) kill -9 behind a prepared cohort: p on disk, the branch's updates in
// the WAL, no commit record. The failure transition from p2 commits.
func cohortPrepared(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(s map[simnet.NodeID]*stable.Store) { seedBranch(t, s[siteA], "T", "p") })
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	site := c.Sites[siteA]
	for _, k := range restartKeys {
		if got := site.Store.Read(k); got != "v-"+k {
			t.Fatalf("%s = %q after construction, want %q", k, got, "v-"+k)
		}
	}
	st, _ := net.Store(siteA)
	noneActive(t, st)
	if d := site.Decision("T"); d != tpc.DecisionCommit {
		t.Fatalf("decision = %s, want commit", d)
	}
	if d, err := tpc.DurableDecision(st, "T"); err != nil || d != tpc.DecisionCommit {
		t.Fatalf("durable decision = %s, %v", d, err)
	}
}

// (b) the same branch persisted in w aborts, and its locks are gone with
// the process: a fresh transaction on the same keys commits.
func cohortWaiting(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(s map[simnet.NodeID]*stable.Store) { seedBranch(t, s[siteA], "T", "w") })
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	site := c.Sites[siteA]
	if d := site.Decision("T"); d != tpc.DecisionAbort {
		t.Fatalf("decision = %s, want abort", d)
	}
	st, _ := net.Store(siteA)
	noneActive(t, st)
	var ops []Op
	for _, k := range restartKeys {
		if got := site.Store.Read(k); got != "" {
			t.Fatalf("aborted write visible: %s = %q", k, got)
		}
		ops = append(ops, Op{Site: siteA, Key: k, Value: "fresh", IsWrite: true})
	}
	if res := submitAndRun(t, c, "T2", ops); res.Decision != tpc.DecisionCommit {
		t.Fatalf("fresh transaction on the aborted branch's keys: %s", res.Decision)
	}
}

// (c) a coordinator killed in w aborts, in p commits, and says so.
func coordinatorUndecided(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(s map[simnet.NodeID]*stable.Store) {
		putState(s[master], "Tw", "w")
		putState(s[master], "Tp", "p")
	})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	c.Run()
	for _, site := range c.Sites {
		if w, p := site.Decision("Tw"), site.Decision("Tp"); w != tpc.DecisionAbort || p != tpc.DecisionCommit {
			t.Fatalf("site %d heard Tw=%s Tp=%s, want abort and commit", site.ID(), w, p)
		}
	}
}

// (d) 2PC cohorts that voted yes block while the coordinator is dead; the
// master a restarted process constructs over the old store re-announces
// the commit it had decided, and they finish.
func newMasterUnblocks(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		return simnet.SendFault{CrashSender: m.Kind == tpc.KindCommit && m.From == master}
	}
	ops := []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}, {Site: siteB, Key: "y", Value: "2", IsWrite: true}}
	mustOK(t, c.Master.Submit("T", ops, nil))
	net.Scheduler().RunUntil(2000)
	for _, site := range c.Sites {
		if blocked, _ := site.Blocked("T"); !blocked {
			t.Fatalf("site %d not blocked behind the dead coordinator", site.ID())
		}
	}
	// The process is gone; a new one comes up on its journal.
	net.OnSend = nil
	reconstruct(t, c, master, cfg, shards)
	net.Scheduler().RunUntil(4000) // bounded: a still-blocked cohort re-arms its timer forever
	for _, site := range c.Sites {
		if d := site.Decision("T"); d != tpc.DecisionCommit {
			t.Fatalf("site %d decided %s after the new master's announcement", site.ID(), d)
		}
	}
	if c.Sites[siteA].Store.Read("x") != "1" || c.Sites[siteB].Store.Read("y") != "2" {
		t.Fatal("committed values not visible")
	}
}

// A 2PC coordinator killed after its commit requests left, with every
// cohort in w: there is no termination protocol, so the yes-voters wait
// for the coordinator, which must find its w1 on disk (BeginWith forces
// it) and announce the abort. Unforced, it came back recordless, said
// nothing, and both sites kept the transaction's locks for good.
func masterKilledInW1(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	ops := []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}, {Site: siteB, Key: "y", Value: "2", IsWrite: true}}
	mustOK(t, c.Master.Submit("T", ops, nil))
	for c.Sites[siteA].StateOf("T") != tpc.StateWait || c.Sites[siteB].StateOf("T") != tpc.StateWait {
		if !net.Scheduler().Step() {
			t.Fatal("quiesced before both sites reached w")
		}
	}
	mustOK(t, net.Crash(master))
	mustOK(t, net.Recover(master))
	net.Scheduler().RunUntil(4000) // bounded: a still-blocked cohort re-arms its timer forever
	for _, site := range c.Sites {
		if d := site.Decision("T"); d == tpc.DecisionNone {
			t.Errorf("site %d still blocked in %s", site.ID(), site.StateOf("T"))
		}
	}
	if !t.Failed() {
		abortedAndUnlocked(t, c, ops)
	}
}

// A site killed after doing a transaction's work and before voting on it
// comes back without the branch. Its coordinator is alive and still asks;
// the answer must be no — a yes commits the transaction everywhere else
// with this site's writes missing.
func lostWork(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		return simnet.SendFault{CrashSender: m.Kind == kindWorkDone && m.From == siteA}
	}
	ops := []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}, {Site: siteB, Key: "y", Value: "2", IsWrite: true}}
	var res *Result
	mustOK(t, c.Master.Submit("T", ops, func(r *Result) { res = r }))
	net.Scheduler().RunUntil(5) // the work is done and siteA is dead
	net.OnSend = nil
	reconstruct(t, c, siteA, cfg, shards)
	c.Run()
	if res == nil || res.Decision != tpc.DecisionAbort {
		t.Fatalf("transaction whose work siteA lost: %+v, want abort", res)
	}
	if x, y := c.Sites[siteA].Store.Read("x"), c.Sites[siteB].Store.Read("y"); x != "" || y != "" {
		t.Fatalf("half a transaction applied: x=%q y=%q", x, y)
	}
}

// The frames a coordinator writes into a connection whose peer just died
// are gone. When one is a startwork, the work timeout starts the protocol
// anyway, and the site that never saw the work must not answer yes: a
// commit request goes only where work went, so no open branch means the
// work was lost. The transaction aborts everywhere and leaves no lock.
func lostStartwork(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		return simnet.SendFault{Drop: m.Kind == kindWork && m.To == siteB}
	}
	ops := []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}, {Site: siteB, Key: "y", Value: "2", IsWrite: true}}
	if res := submitAndRun(t, c, "T", ops); res.Decision != tpc.DecisionAbort {
		t.Fatalf("transaction half of whose work was lost: %s, want abort", res.Decision)
	}
	net.OnSend = nil
	abortedAndUnlocked(t, c, ops)
}

// abortedAndUnlocked requires that neither of ops' writes is visible and
// that a fresh transaction issuing the same writes commits.
func abortedAndUnlocked(t *testing.T, c *Cluster, ops []Op) {
	t.Helper()
	if x, y := c.Sites[siteA].Store.Read("x"), c.Sites[siteB].Store.Read("y"); x != "" || y != "" {
		t.Fatalf("half a transaction applied: x=%q y=%q", x, y)
	}
	if res := submitAndRun(t, c, "fresh", ops); res.Decision != tpc.DecisionCommit {
		t.Fatalf("fresh transaction on the aborted transaction's keys: %s, want commit", res.Decision)
	}
}

// refusing is a transport that returns an error for the sends refuse
// picks, the way rt/tcp does for a frame over its size limit.
type refusing struct {
	*simnet.Network
	refuse func(to simnet.NodeID, kind string) bool
	sends  int
}

func (r *refusing) Send(from, to rt.NodeID, kind string, payload any) error {
	r.sends++
	if r.refuse(to, kind) {
		return errors.New("refused")
	}
	return r.Network.Send(from, to, kind, payload)
}

// A startwork the transport refuses is failed work, not a failed Submit:
// the site it never reached votes no, so the branch already open at the
// other site aborts — through the protocol, before the work timer (8δ)
// could fire — and its locks go with it. A site the master does not manage
// is refused before anything is sent, and the name is not burnt.
func refusedStartwork(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	tr := &refusing{Network: net, refuse: func(to simnet.NodeID, kind string) bool { return kind == kindWork && to == siteB }}
	c.Master, err = NewMasterOn(tr, master, c.SiteIDs, cfg)
	mustOK(t, err)
	ops := []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}, {Site: siteB, Key: "y", Value: "2", IsWrite: true}}
	var res *Result
	mustOK(t, c.Master.Submit("T", ops, func(r *Result) { res = r }))
	net.Scheduler().RunUntil(8*net.Delta() - 1)
	if res == nil || res.Decision != tpc.DecisionAbort {
		t.Fatalf("transaction one of whose startworks was refused: %+v, want abort before the work timeout", res)
	}
	c.Run()
	for id, site := range c.Sites {
		if site.Store.Prepared("T") {
			t.Fatalf("site %d still holds T's branch open", id)
		}
	}
	tr.refuse = func(simnet.NodeID, string) bool { return false }
	abortedAndUnlocked(t, c, ops)

	sent := tr.sends
	stray := append([]Op{{Site: 9, Key: "z", Value: "3", IsWrite: true}}, ops...)
	if err := c.Master.Submit("U", stray, nil); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("Submit with an unmanaged site: %v, want ErrUnknownSite", err)
	}
	if tr.sends != sent {
		t.Fatalf("%d sends before the unknown site was refused", tr.sends-sent)
	}
	if res := submitAndRun(t, c, "U", ops); res.Decision != tpc.DecisionCommit {
		t.Fatalf("name refused with ErrUnknownSite was burnt: %s", res.Decision)
	}
}

// A master that crashes between two startworks fails Submit; when it comes
// back it runs the protocol for the submission it still holds, the site the
// work never reached votes no, and the other site's branch is released.
func crashedMidSubmit(t *testing.T, cfg tpc.Config, shards int) {
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		return simnet.SendFault{CrashSender: m.Kind == kindWork && m.To == siteB}
	}
	ops := []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}, {Site: siteB, Key: "y", Value: "2", IsWrite: true}}
	var res *Result
	if err := c.Master.Submit("T", ops, func(r *Result) { res = r }); !errors.Is(err, simnet.ErrNodeDown) {
		t.Fatalf("Submit on a master that crashed mid-submission: %v, want ErrNodeDown", err)
	}
	net.OnSend = nil
	c.Run()
	if !c.Sites[siteA].Store.Prepared("T") || res != nil {
		t.Fatalf("staging: siteA holds no branch, or T was decided (%+v) with its master down", res)
	}
	mustOK(t, net.Recover(master))
	c.Run()
	if res == nil || res.Decision != tpc.DecisionAbort {
		t.Fatalf("after the master's recovery: %+v, want abort", res)
	}
	abortedAndUnlocked(t, c, ops)
}

// (e) a state record that does not decode stops the constructor — and a
// simulated restart over the same store — with the same wrapped
// ErrCorrupt; the node stays down.
func corruptState(t *testing.T, cfg tpc.Config, shards int) {
	for _, victim := range []simnet.NodeID{master, siteA} {
		net := usedNet(t, func(s map[simnet.NodeID]*stable.Store) { putState(s[victim], "T", "\x00garbage") })
		if _, err := construct(net, cfg, shards); !errors.Is(err, tpc.ErrCorrupt) {
			t.Fatalf("constructing node %d over a corrupt record: %v", victim, err)
		}

		net = usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
		_, err := construct(net, cfg, shards)
		mustOK(t, err)
		st, _ := net.Store(victim)
		putState(st, "T", "\x00garbage")
		mustOK(t, st.Sync())
		mustOK(t, net.Crash(victim))
		if err := net.Recover(victim); !errors.Is(err, tpc.ErrCorrupt) {
			t.Fatalf("simnet.Recover of node %d over a corrupt record: %v", victim, err)
		}
		if net.Up(victim) {
			t.Fatalf("node %d serves after a failed recovery", victim)
		}
	}
}

// (f) a node with a long decided history comes up without one fsync or
// one rewritten record per transaction, and the coordinator's outcomes
// still reach the cohorts.
func decidedHistory(t *testing.T, cfg tpc.Config, shards int) {
	const n = 1000
	name := func(i int) string { return fmt.Sprintf("h%04d", i) }
	outcome := func(i int) (string, tpc.Decision) {
		if i%3 == 0 {
			return "a", tpc.DecisionAbort
		}
		return "c", tpc.DecisionCommit
	}
	net := usedNet(t, func(s map[simnet.NodeID]*stable.Store) {
		for _, id := range []simnet.NodeID{master, siteA} {
			for i := 0; i < n; i++ {
				state, d := outcome(i)
				putState(s[id], name(i), state)
				s[id].Put("tpc/"+name(i)+"/decision", []byte(d.String()))
			}
			mustOK(t, s[id].Sync())
		}
	})
	type bill struct{ syncs, kv, log int }
	read := func(id simnet.NodeID) bill {
		st, _ := net.Store(id)
		kv, log := st.Writes()
		return bill{st.Syncs(), kv, log}
	}
	before := map[simnet.NodeID]bill{master: read(master), siteA: read(siteA)}
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	c.Run()
	for id, b := range before {
		// Opening a site's database discards any tentative checkpoint: one
		// delete, whatever the history.
		if got := read(id); got.syncs != b.syncs || got.log != b.log || got.kv-b.kv > 1 {
			t.Fatalf("node %d paid %+v to come up over %d decided transactions, had %+v", id, got, n, b)
		}
	}
	for i := 0; i < n; i++ {
		if _, want := outcome(i); c.Sites[siteB].Decision(name(i)) != want {
			t.Fatalf("site %d never heard %s=%s", siteB, name(i), want)
		}
	}
}

// restartRow stages one crash of TestSimulatedRestartIsProcessRestart: T
// writes at sites, the cluster is stepped until crashWhen holds, and the
// victim is crashed with durable as T's state record on its disk.
type restartRow struct {
	name       string
	threePhase bool // the row needs a p state
	victim     simnet.NodeID
	sites      []simnet.NodeID
	// dropVote loses siteB's yes-vote, so the coordinator times out in w
	// and aborts a transaction siteA voted yes for.
	dropVote  bool
	crashWhen func(c *Cluster) bool
	// forceSync syncs the victim's store before the crash, as a concurrent
	// committer's sync point would: a 3PC coordinator's w is never forced.
	forceSync bool
	durable   string
}

// Every cohort row crashes the site with its memory ahead of its disk (the
// outcome it heard sits in the unsynced tail); every coordinator row runs a
// transaction that spans one of the two sites, where a coordinator that
// remembered the participants would announce to fewer nodes than one that
// read them off the disk, which does not have them.
var restartRows = []restartRow{
	{name: "cohort in w", victim: siteA, sites: []simnet.NodeID{siteA, siteB}, dropVote: true, durable: "w",
		crashWhen: func(c *Cluster) bool { return c.Sites[siteA].Decision("T") == tpc.DecisionAbort }},
	{name: "cohort in p", threePhase: true, victim: siteA, sites: []simnet.NodeID{siteA}, durable: "p",
		crashWhen: func(c *Cluster) bool { return c.Sites[siteA].Decision("T") == tpc.DecisionCommit }},
	{name: "coordinator in w", victim: master, sites: []simnet.NodeID{siteA}, forceSync: true, durable: "w",
		crashWhen: func(c *Cluster) bool { return c.Master.coord.StateOf("T") == tpc.StateWait }},
	{name: "coordinator in p", threePhase: true, victim: master, sites: []simnet.NodeID{siteA}, durable: "p",
		crashWhen: func(c *Cluster) bool { return c.Master.coord.StateOf("T") == tpc.StatePrepared }},
}

// restart stages the row on a new cluster, brings the victim back —
// simnet.Recover on the live engine, or a new engine constructed over the
// same store, as a restarted tpcserve does — and returns every node's
// protocol records plus every send from the restart on.
func (row restartRow) restart(t *testing.T, cfg tpc.Config, shards int, fresh bool) string {
	t.Helper()
	net := usedNet(t, func(map[simnet.NodeID]*stable.Store) {})
	c, err := construct(net, cfg, shards)
	mustOK(t, err)
	heard := map[string]int{}
	submit := func(name string, sites []simnet.NodeID) {
		var ops []Op
		for _, id := range sites {
			ops = append(ops, Op{Site: id, Key: fmt.Sprintf("k%d", id), Value: name, IsWrite: true})
		}
		mustOK(t, c.Master.Submit(name, ops, func(*Result) { heard[name]++ }))
	}
	submit("T0", []simnet.NodeID{siteB}) // decided history a restarted coordinator re-announces
	c.Run()
	if row.dropVote {
		net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
			return simnet.SendFault{Drop: m.Kind == tpc.KindVoteYes && m.From == siteB}
		}
	}
	submit("T", row.sites)
	for !row.crashWhen(c) {
		if !net.Scheduler().Step() {
			t.Fatalf("quiesced before the crash point")
		}
	}
	st, _ := net.Store(row.victim)
	if row.forceSync {
		mustOK(t, st.Sync())
	}
	mustOK(t, net.Crash(row.victim))
	if got, _ := st.Get("tpc/T/state"); string(got) != row.durable {
		t.Fatalf("staging: node %d crashed with T in %q on disk, want %q", row.victim, got, row.durable)
	}

	var out []string
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		out = append(out, fmt.Sprintf("%d->%d %s", m.From, m.To, m.Kind))
		return simnet.SendFault{}
	}
	if fresh {
		reconstruct(t, c, row.victim, cfg, shards)
	} else {
		mustOK(t, net.Recover(row.victim))
	}
	net.Scheduler().RunUntil(net.Now() + 2000) // bounded: a blocked 2PC cohort re-arms its timer forever
	for name, n := range heard {
		if n > 1 {
			t.Errorf("the submitter of %s heard its outcome %d times", name, n)
		}
	}
	for _, id := range net.Nodes() {
		st, _ := net.Store(id)
		for _, key := range st.Keys() {
			if strings.HasPrefix(key, "tpc/") {
				val, _ := st.Get(key)
				out = append(out, fmt.Sprintf("node %d %s=%s", id, key, val))
			}
		}
	}
	return strings.Join(out, "\n")
}

// A simulated crash is what kill -9 is: simnet.Crash + Recover on the live
// engines and engines constructed anew over the same stores leave the same
// protocol records on every disk and send the same kinds to the same nodes.
func TestSimulatedRestartIsProcessRestart(t *testing.T) {
	for _, proto := range []tpc.Protocol{tpc.ThreePhase, tpc.TwoPhase} {
		for _, shards := range []int{1, 4} {
			cfg := tpc.Config{Protocol: proto}
			for _, row := range restartRows {
				if row.threePhase && proto == tpc.TwoPhase {
					continue
				}
				t.Run(fmt.Sprintf("%s/shards=%d/%s", proto, shards, row.name), func(t *testing.T) {
					live, constructed := row.restart(t, cfg, shards, false), row.restart(t, cfg, shards, true)
					if live != constructed {
						t.Fatalf("simnet.Recover on the live engine:\n%s\n\nengine constructed over the same store:\n%s", live, constructed)
					}
				})
			}
		}
	}
	t.Run("memory ahead of disk", crashedBackup)
	t.Run("batch window", batchWindow)
}

// A terminating backup tells one peer "commit" and is crashed before its
// second send, its handler running on over a frozen store. Whatever that
// dead stack goes on to do, the restart follows the disk: Fig. 3.2 recovers
// the state the backup crashed with (w aborts, p and c commit, a aborts),
// and the backup's data holds the write exactly when it commits. The served
// backup decides — durably — before it sends, so it restarts committed; the
// unsafe termination mutant (internal/mutant) sends first, its disk says w,
// and it restarts into an abort. Both pass: the restart never believes
// the dead stack.
func crashedBackup(t *testing.T) {
	net := simnet.New(sim.NewScheduler(1), simnet.DefaultOptions())
	c, err := NewShardedClusterOn(net, 3, tpc.Config{}, 1)
	mustOK(t, err)
	backup, peer, last := c.SiteIDs[0], c.SiteIDs[1], c.SiteIDs[2]
	// The coordinator dies between two prepares and the backup's own was
	// lost: it terminates from w over a peer in p, and commits.
	net.OnSend = func(_ uint64, m simnet.Message) simnet.SendFault {
		return simnet.SendFault{
			Drop:        m.Kind == tpc.KindPrepare && m.To == backup,
			CrashSender: m.To == last && (m.Kind == tpc.KindPrepare || m.Kind == tpc.KindCommit),
		}
	}
	var ops []Op
	for _, id := range c.SiteIDs {
		ops = append(ops, Op{Site: id, Key: "x", Value: "1", IsWrite: true})
	}
	mustOK(t, c.Master.Submit("T", ops, nil))
	net.Scheduler().RunUntil(2000)
	st, _ := net.Store(backup)
	raw, _ := st.Get("tpc/T/state")
	if net.Up(backup) || c.Sites[peer].Decision("T") != tpc.DecisionCommit {
		t.Fatalf("staging: backup up=%v with %q on disk, peer decided %s; want a dead backup and a committed peer",
			net.Up(backup), raw, c.Sites[peer].Decision("T"))
	}
	crashedIn, err := tpc.ParseState(string(raw))
	mustOK(t, err)
	want, wantX := tpc.DecisionAbort, ""
	if crashedIn.Committable() {
		want, wantX = tpc.DecisionCommit, "1"
	}
	net.OnSend = nil
	mustOK(t, net.Recover(backup))
	if d, err := tpc.DurableDecision(st, "T"); err != nil || d != want || c.Sites[backup].Store.Read("x") != wantX {
		t.Fatalf("backup crashed in %s and restarted to %s (%v) with x=%q; want %s with x=%q",
			crashedIn, d, err, c.Sites[backup].Store.Read("x"), want, wantX)
	}
}

// A cluster's stores group-commit, so a crash takes the unsynced tail: a
// cohort that applied a commit heard in p (never forced: recovery re-derives
// it) is back at its last synced record, p with the branch open, and its
// restart commits again from there.
func batchWindow(t *testing.T) {
	net := simnet.New(sim.NewScheduler(1), simnet.DefaultOptions())
	c, err := NewShardedClusterOn(net, 2, tpc.Config{}, 1)
	mustOK(t, err)
	site := c.Sites[siteA]
	mustOK(t, c.Master.Submit("T", []Op{{Site: siteA, Key: "x", Value: "1", IsWrite: true}}, nil))
	for site.Decision("T") != tpc.DecisionCommit {
		if !net.Scheduler().Step() {
			t.Fatal("quiesced before the site decided")
		}
	}
	st, _ := net.Store(siteA)
	mustOK(t, net.Crash(siteA))
	active, err := wal.Active(st)
	mustOK(t, err)
	if got, _ := st.Get("tpc/T/state"); string(got) != "p" || len(active) != 1 {
		t.Fatalf("crashed site's disk: T in %q with open branches %v; want the last synced record, p, and T's branch", got, active)
	}
	mustOK(t, net.Recover(siteA))
	noneActive(t, st)
	if d, err := tpc.DurableDecision(st, "T"); err != nil || d != tpc.DecisionCommit || site.Store.Read("x") != "1" {
		t.Fatalf("after the restart: durable decision %s (%v), x=%q; want commit and 1", d, err, site.Store.Read("x"))
	}
}

// A restarted coordinator announces its whole decided history to peers that
// may not be listening yet, through rt/tcp's bounded peer queue, which sheds
// its oldest frames. The one outcome somebody can be waiting on — the
// transaction the old process left in p — must not be among the shed: it is
// decided last, wherever its name sorts (here: among the oldest, behind the
// one frame the peer's writer holds while it dials).
func TestInDoubtOutcomeSurvivesPeerQueue(t *testing.T) {
	const decided = 1200 // > the queue's 1,024 frames
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		mustOK(t, err)
		addrs[i] = l.Addr().String()
		l.Close()
	}
	cluster := map[rt.NodeID]string{master: addrs[0], siteA: addrs[1]}
	codec := tcp.NewCodec()
	mustOK(t, tpc.RegisterWire(codec))
	mustOK(t, RegisterWire(codec))
	up := func(id rt.NodeID, st *stable.Store) *tcp.Net {
		n, err := tcp.New(tcp.Options{Local: id, Cluster: cluster, Codec: codec, Store: st})
		mustOK(t, err)
		mustOK(t, n.Start())
		t.Cleanup(n.Close)
		n.AddNode(id, nil)
		return n
	}

	st := stable.NewStore()
	putState(st, "h0010x", "p")
	for i := 0; i < decided; i++ {
		putState(st, fmt.Sprintf("h%04d", i), "c")
		st.Put(fmt.Sprintf("tpc/h%04d/decision", i), []byte("commit"))
	}
	cfg := tpc.Config{}
	coord := up(master, st)
	if _, err := NewMasterOn(coord, master, []rt.NodeID{siteA}, cfg); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(10 * time.Second); coord.Stats(siteA).Dropped == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d announcements never overflowed the peer queue: %+v", decided+1, coord.Stats(siteA))
		}
	}

	cohort := up(siteA, nil)
	site, err := NewShardedSiteOn(cohort, siteA, master, []rt.NodeID{siteA}, cfg, 1)
	mustOK(t, err)
	heard := make(chan tpc.Decision)
	for end := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		cohort.After(siteA, 0, func() { heard <- site.Decision("h0010x") })
		if d := <-heard; d == tpc.DecisionCommit {
			return
		} else if d != tpc.DecisionNone || time.Now().After(end) {
			t.Fatalf("cohort has %s for the in-doubt transaction (%d frames shed)", d, coord.Stats(siteA).Dropped)
		}
	}
}
