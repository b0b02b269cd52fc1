package experiments

import (
	"bytes"
	"fmt"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/live"
	"speccat/internal/sim"
	"speccat/internal/simnet"
	"speccat/internal/stable"
	"speccat/internal/tpc"
)

// E16 — real-goroutine conformance replay. The tpc engines, ported to
// the rt runtime boundary, run on the live adapter (one goroutine per
// node, wall-clock timers); a live.Tracer records the global delivery
// trace; the trace is then replayed through the deterministic simulator
// driving the very same engine code, and the decisions and byte-level
// durable stores of the two runs must agree. Together with portcheck
// (static) and the race detector (dynamic, when the test suite runs with
// -race) this is the evidence that the port off the simulator is
// checked, not trusted.

// ConformanceRow is one protocol's comparison of a run on real event
// loops (E16: the live adapter; E17: TCP loopback) against the
// deterministic replay of its own delivery trace.
type ConformanceRow struct {
	Protocol string
	// Txns is the number of transactions driven (one commit, one abort).
	Txns int
	// Messages is the length of the recorded delivery trace.
	Messages int
	// FramesSent sums every node's outbound frame counter (zero on the
	// live transport, which has no wire).
	FramesSent uint64
	// Decisions maps txn -> the real run's coordinator decision.
	Decisions map[string]tpc.Decision
	// ReplayAgree is true when every node's decision in the replay run
	// matches the real run.
	ReplayAgree bool
	// DurableAgree is true when every node's stable store after the real
	// run is byte-identical to the replay run's.
	DurableAgree bool
}

// Agree reports full conformance for the row.
func (r ConformanceRow) Agree() bool { return r.ReplayAgree && r.DurableAgree }

// e16Tick is the wall duration of one tick in live runs: fast enough
// for quick tests, slow enough that phase timeouts (inflated below)
// never fire on a loaded CI machine.
const e16Tick = 200 * time.Microsecond

// E16LiveConformance runs the commit stack on the live adapter and
// replays the recorded trace deterministically, for 3PC and the 2PC
// baseline. One transaction commits (all yes-votes), one aborts (one
// no-voter).
func E16LiveConformance() ([]ConformanceRow, error) {
	return conformanceRows("e16", liveCluster)
}

// liveCluster starts one live adapter hosting every node, with a tracer.
func liveCluster([]rt.NodeID) (*runningCluster, error) {
	tr := &live.Tracer{}
	lnet := live.New(live.Options{Tick: e16Tick, Delta: 10, Tracer: tr})
	return &runningCluster{net: func(rt.NodeID) rt.Transport { return lnet }, close: lnet.Close, trace: tr.Entries}, nil
}

// runningCluster is what a conformance run needs of the cluster under
// test: real event loops already started, nothing deployed on them yet.
type runningCluster struct {
	// net returns the transport hosting a node.
	net func(id rt.NodeID) rt.Transport
	// close joins every event loop (idempotent); engine state, stores and
	// the trace are safely readable once it returns.
	close func()
	// trace is the global delivery order of the run.
	trace func() []live.TraceEntry
	// frames sums the outbound frame counters, read before close; nil
	// when no wire is involved.
	frames func() uint64
}

// conformanceRows records one run per protocol on the cluster start
// returns and replays its trace.
func conformanceRows(name string, start func(ids []rt.NodeID) (*runningCluster, error)) ([]ConformanceRow, error) {
	var rows []ConformanceRow
	for _, p := range []tpc.Protocol{tpc.ThreePhase, tpc.TwoPhase} {
		var row ConformanceRow
		rec, err := record(p, start)
		if err == nil {
			row, err = rec.replay(rec.trace)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, p, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// conformanceVote is every cohort's vote: yes, except on t-abort.
func conformanceVote(txn string, _ []byte) (bool, []byte) { return txn != "t-abort", nil }

// recording is one real run: the delivery trace a replay re-drives, and
// every node's decisions and stable store that the replay must reproduce.
type recording struct {
	cfg tpc.Config
	// txns are driven in order: the first commits, the second aborts on
	// conformanceVote's no.
	txns      []string
	trace     []live.TraceEntry
	decisions map[rt.NodeID]map[string]tpc.Decision
	stores    map[rt.NodeID]*stable.Store
	frames    uint64
}

// record drives a commit and an abort through the engines on the cluster
// start returns, one coordinator and three cohorts, and keeps what the
// run did.
func record(p tpc.Protocol, start func(ids []rt.NodeID) (*runningCluster, error)) (*recording, error) {
	// A huge phase timeout (in ticks) keeps timers from firing during a
	// healthy real run, so the trace contains every cause of every
	// transition and the timer-free replay cannot diverge.
	rec := &recording{cfg: tpc.Config{Protocol: p, PhaseTimeout: 50_000}, txns: []string{"t-commit", "t-abort"}, decisions: map[rt.NodeID]map[string]tpc.Decision{}, stores: map[rt.NodeID]*stable.Store{}}
	coordID := rt.NodeID(1)
	cohortIDs := []rt.NodeID{2, 3, 4}
	ids := append([]rt.NodeID{coordID}, cohortIDs...)

	cl, err := start(ids)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	coord, err := tpc.DeployCoordinator(cl.net(coordID), coordID, cohortIDs, rec.cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	// Wire votes and decision observers before any message flows. The
	// decided channel hands each node's outcome to this goroutine.
	type decided struct {
		node rt.NodeID
		txn  string
		d    tpc.Decision
	}
	decCh := make(chan decided, 2*len(ids)) // every node decides both transactions
	coord.OnDecide = func(txn string, dec tpc.Decision) { decCh <- decided{coordID, txn, dec} }
	for _, id := range cohortIDs {
		h, err := tpc.DeployCohort(cl.net(id), id, coordID, rec.cfg)
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		h.Vote = conformanceVote
		h.OnDecide = func(txn string, dec tpc.Decision) { decCh <- decided{id, txn, dec} }
	}

	for _, id := range ids {
		rec.decisions[id] = map[string]tpc.Decision{}
	}
	for _, txn := range rec.txns {
		// Begin must run on the coordinator's own event loop — calling it
		// from this goroutine would mutate confined coordinator state off
		// the loop, the exact bug class rt-confine exists to flag.
		errCh := make(chan error, 1)
		cl.net(coordID).After(coordID, 0, func() { errCh <- coord.Begin(txn) })
		select {
		case err := <-errCh:
			if err != nil {
				return nil, fmt.Errorf("begin %s: %w", txn, err)
			}
		case <-time.After(10 * time.Second): //lint:allow nowallclock real-run watchdog: bounds a wall-clock run that has genuinely hung
			return nil, fmt.Errorf("begin %s: timed out", txn)
		}
		// Every node decides every transaction in a healthy run.
		for i := range ids {
			select {
			case dec := <-decCh:
				rec.decisions[dec.node][dec.txn] = dec.d
			case <-time.After(10 * time.Second): //lint:allow nowallclock real-run watchdog: bounds a wall-clock run that has genuinely hung
				return nil, fmt.Errorf("run %s: decision %d/%d timed out", txn, i+1, len(ids))
			}
		}
	}
	if cl.frames != nil {
		rec.frames = cl.frames()
	}
	cl.close()
	rec.trace = cl.trace()
	for _, id := range ids {
		if rec.stores[id], err = cl.net(id).Store(id); err != nil {
			return nil, fmt.Errorf("store %d: %w", id, err)
		}
	}
	return rec, nil
}

// replay re-drives trace through the same engines on the simulator,
// which it never steps: each delivery goes to its node through Deliver,
// in global order (which preserves each node's delivery order). The
// engines' own sends stay queued — the trace already contains their
// deliveries — and their timers never fire, which is sound because none
// fired in the real run. The row agrees when every node decides and
// stores exactly what it did in the real run.
func (rec *recording) replay(trace []live.TraceEntry) (ConformanceRow, error) {
	net := simnet.New(sim.NewScheduler(1), simnet.DefaultOptions())
	rd, err := tpc.Deploy(net, len(rec.stores)-1, rec.cfg)
	if err != nil {
		return ConformanceRow{}, fmt.Errorf("replay deploy: %w", err)
	}
	for _, h := range rd.Cohorts {
		h.Vote = conformanceVote
	}
	for _, txn := range rec.txns {
		if err := rd.Coordinator.Begin(txn); err != nil {
			return ConformanceRow{}, fmt.Errorf("replay begin %s: %w", txn, err)
		}
	}
	for _, e := range trace {
		if err := net.Deliver(e.Msg); err != nil {
			return ConformanceRow{}, fmt.Errorf("replay deliver: %w", err)
		}
	}

	row := ConformanceRow{
		Protocol:     rec.cfg.Protocol.String(),
		Txns:         len(rec.txns),
		Messages:     len(rec.trace),
		FramesSent:   rec.frames,
		Decisions:    rec.decisions[rd.CoordID],
		ReplayAgree:  true,
		DurableAgree: true,
	}
	for _, txn := range rec.txns {
		if rd.Coordinator.Decision(txn) != rec.decisions[rd.CoordID][txn] {
			row.ReplayAgree = false
		}
		for id, h := range rd.Cohorts {
			if h.Decision(txn) != rec.decisions[id][txn] {
				row.ReplayAgree = false
			}
		}
	}
	for id, real := range rec.stores {
		replayed, err := net.Store(id)
		if err != nil {
			return ConformanceRow{}, fmt.Errorf("replay store %d: %w", id, err)
		}
		if !storesEqual(real, replayed) {
			row.DurableAgree = false
		}
	}
	return row, nil
}

// storesEqual compares two stable stores byte for byte.
func storesEqual(a, b *stable.Store) bool {
	akv, alog := a.Snapshot()
	bkv, blog := b.Snapshot()
	if len(akv) != len(bkv) || len(alog) != len(blog) {
		return false
	}
	for k, v := range akv {
		if !bytes.Equal(v, bkv[k]) {
			return false
		}
	}
	for i := range alog {
		if !bytes.Equal(alog[i], blog[i]) {
			return false
		}
	}
	return true
}
