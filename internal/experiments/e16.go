package experiments

import (
	"bytes"
	"fmt"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/live"
	"speccat/internal/stable"
	"speccat/internal/tpc"
)

// E16 — real-goroutine conformance replay. The tpc engines, ported to
// the rt runtime boundary, run on the live adapter (one goroutine per
// node, wall-clock timers); a live.Tracer records the global delivery
// trace; the trace is then replayed through a single-threaded replay
// transport driving the very same engine code, and the decisions and
// byte-level durable stores of the two runs must agree. Together with
// portcheck (static) and the race detector (dynamic, when the test suite
// runs with -race) this is the evidence ROADMAP item 1 asks for: the
// port off the simulator is checked, not trusted.

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
	return conformanceRows("e16", func(ids []rt.NodeID) (*runningCluster, error) {
		tr := &live.Tracer{}
		lnet := live.New(live.Options{Tick: e16Tick, Delta: 10, Tracer: tr})
		return &runningCluster{net: func(rt.NodeID) rt.Transport { return lnet }, close: lnet.Close, trace: tr.Entries}, nil
	})
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

// conformanceRows runs one live-then-replay comparison per protocol.
func conformanceRows(name string, start func(ids []rt.NodeID) (*runningCluster, error)) ([]ConformanceRow, error) {
	var rows []ConformanceRow
	for _, p := range []tpc.Protocol{tpc.ThreePhase, tpc.TwoPhase} {
		row, err := runAndReplay(p, start)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, p, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runAndReplay drives one commit and one abort through the engines on the
// cluster start returns, then replays the recorded trace through a
// single-threaded replay transport driving the very same engine code and
// compares decisions and durable stores.
func runAndReplay(p tpc.Protocol, start func(ids []rt.NodeID) (*runningCluster, error)) (ConformanceRow, error) {
	// A huge phase timeout (in ticks) keeps timers from firing during a
	// healthy real run, so the trace contains every cause of every
	// transition and the timer-free replay cannot diverge.
	cfg := tpc.Config{Protocol: p, PhaseTimeout: 50_000}
	noVoter := func(txn string) bool { return txn != "t-abort" }
	coordID := rt.NodeID(1)
	cohortIDs := []rt.NodeID{2, 3, 4}
	ids := append([]rt.NodeID{coordID}, cohortIDs...)

	cl, err := start(ids)
	if err != nil {
		return ConformanceRow{}, err
	}
	defer cl.close()
	coord, err := tpc.DeployCoordinator(cl.net(coordID), coordID, cohortIDs, cfg)
	if err != nil {
		return ConformanceRow{}, fmt.Errorf("deploy: %w", err)
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
		h, err := tpc.DeployCohort(cl.net(id), id, coordID, cfg)
		if err != nil {
			return ConformanceRow{}, fmt.Errorf("deploy: %w", err)
		}
		h.Vote = noVoter
		h.OnDecide = func(txn string, dec tpc.Decision) { decCh <- decided{id, txn, dec} }
	}

	txns := []string{"t-commit", "t-abort"}
	realDec := map[rt.NodeID]map[string]tpc.Decision{}
	for _, id := range ids {
		realDec[id] = map[string]tpc.Decision{}
	}
	for _, txn := range txns {
		// Begin must run on the coordinator's own event loop — calling it
		// from this goroutine would mutate confined coordinator state off
		// the loop, the exact bug class rt-confine exists to flag.
		errCh := make(chan error, 1)
		cl.net(coordID).After(coordID, 0, func() { errCh <- coord.Begin(txn) })
		select {
		case err := <-errCh:
			if err != nil {
				return ConformanceRow{}, fmt.Errorf("begin %s: %w", txn, err)
			}
		case <-time.After(10 * time.Second): //lint:allow nowallclock real-run watchdog: bounds a wall-clock run that has genuinely hung
			return ConformanceRow{}, fmt.Errorf("begin %s: timed out", txn)
		}
		// Every node decides every transaction in a healthy run.
		for i := range ids {
			select {
			case dec := <-decCh:
				realDec[dec.node][dec.txn] = dec.d
			case <-time.After(10 * time.Second): //lint:allow nowallclock real-run watchdog: bounds a wall-clock run that has genuinely hung
				return ConformanceRow{}, fmt.Errorf("run %s: decision %d/%d timed out", txn, i+1, len(ids))
			}
		}
	}
	row := ConformanceRow{
		Protocol:     p.String(),
		Txns:         len(txns),
		Decisions:    realDec[coordID],
		ReplayAgree:  true,
		DurableAgree: true,
	}
	if cl.frames != nil {
		row.FramesSent = cl.frames()
	}
	cl.close()
	trace := cl.trace()
	row.Messages = len(trace)

	// Replay: same engines, single-threaded, fed the recorded deliveries
	// in global order (which preserves each node's delivery order). Sends
	// are dropped — the trace already contains their deliveries — and
	// timers are inert, which is sound because none fired in the real run.
	rnet := newReplayNet(10)
	rd, err := tpc.Deploy(rnet, len(cohortIDs), cfg)
	if err != nil {
		return ConformanceRow{}, fmt.Errorf("replay deploy: %w", err)
	}
	for _, h := range rd.Cohorts {
		h.Vote = noVoter
	}
	for _, txn := range txns {
		if err := rd.Coordinator.Begin(txn); err != nil {
			return ConformanceRow{}, fmt.Errorf("replay begin %s: %w", txn, err)
		}
	}
	for _, e := range trace {
		if err := rnet.Deliver(e.Msg); err != nil {
			return ConformanceRow{}, fmt.Errorf("replay deliver: %w", err)
		}
	}

	for _, txn := range txns {
		if rd.Coordinator.Decision(txn) != realDec[coordID][txn] {
			row.ReplayAgree = false
		}
		for _, id := range cohortIDs {
			if rd.Cohorts[id].Decision(txn) != realDec[id][txn] {
				row.ReplayAgree = false
			}
		}
	}
	for _, id := range ids {
		realStore, err := cl.net(id).Store(id)
		if err != nil {
			return ConformanceRow{}, fmt.Errorf("store %d: %w", id, err)
		}
		replayStore, err := rnet.Store(id)
		if err != nil {
			return ConformanceRow{}, fmt.Errorf("replay store %d: %w", id, err)
		}
		if !storesEqual(realStore, replayStore) {
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

// replayNet is the deterministic replay face of rt.Transport: handlers
// run synchronously on the caller's stack, sends are dropped (the trace
// being replayed already contains their deliveries), timers are inert,
// and time stands still. It exists only to re-drive recorded live runs.
type replayNet struct {
	delta    rt.Time
	order    []rt.NodeID
	handlers map[rt.NodeID]rt.Handler
	stores   map[rt.NodeID]*stable.Store
}

func newReplayNet(delta rt.Time) *replayNet {
	return &replayNet{delta: delta, handlers: map[rt.NodeID]rt.Handler{}, stores: map[rt.NodeID]*stable.Store{}}
}

func (r *replayNet) Send(from, to rt.NodeID, kind string, payload any) error  { return nil }
func (r *replayNet) Broadcast(from rt.NodeID, kind string, payload any) error { return nil }

func (r *replayNet) Deliver(msg rt.Message) error {
	h, ok := r.handlers[msg.To]
	if !ok {
		return fmt.Errorf("replay: unknown node %d", msg.To)
	}
	if h != nil {
		h(msg)
	}
	return nil
}

// inertTimer never fires; replay runs are driven purely by the trace.
type inertTimer struct{}

func (inertTimer) Cancel() {}

func (r *replayNet) After(id rt.NodeID, d rt.Time, fn func()) rt.Timer { return inertTimer{} }
func (r *replayNet) Now() rt.Time                                      { return 0 }
func (r *replayNet) Delta() rt.Time                                    { return r.delta }

func (r *replayNet) AddNode(id rt.NodeID, h rt.Handler) *stable.Store {
	if s, ok := r.stores[id]; ok {
		r.handlers[id] = h
		return s
	}
	r.order = append(r.order, id)
	r.handlers[id] = h
	r.stores[id] = stable.NewStore()
	return r.stores[id]
}

func (r *replayNet) SetHandler(id rt.NodeID, h rt.Handler) error {
	if _, ok := r.stores[id]; !ok {
		return fmt.Errorf("replay: unknown node %d", id)
	}
	r.handlers[id] = h
	return nil
}

func (r *replayNet) SetRecover(id rt.NodeID, f rt.RecoverFunc) error { return nil }

func (r *replayNet) Store(id rt.NodeID) (*stable.Store, error) {
	s, ok := r.stores[id]
	if !ok {
		return nil, fmt.Errorf("replay: unknown node %d", id)
	}
	return s, nil
}

func (r *replayNet) Nodes() []rt.NodeID   { return append([]rt.NodeID(nil), r.order...) }
func (r *replayNet) Up(id rt.NodeID) bool { _, ok := r.stores[id]; return ok }

var _ rt.Transport = (*replayNet)(nil)
