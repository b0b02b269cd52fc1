// Package live is the real-goroutine implementation of the rt runtime
// boundary: one event-loop goroutine per node, unbounded FIFO mailboxes
// for cross-node message passing, and wall-clock timers. It exists to
// check by execution what portcheck checks by analysis — that the
// engines ported to rt.Transport actually run correctly once real
// concurrency replaces the single-threaded simulator. The conformance
// suite (EXPERIMENTS.md E16) runs the tpc stack on this adapter under
// the race detector, records the delivery trace (Options.Tracer), and
// replays it through the deterministic simulator asserting decision
// agreement.
//
// The adapter honors the rt.Transport concurrency contract:
//
//   - Per-node serialization: each node's handler and timer callbacks
//     run on that node's single event-loop goroutine (see SetRecover).
//   - Asynchronous sends: Send/Broadcast enqueue onto the destination
//     mailbox and return; they never run the destination handler on the
//     caller's stack.
//   - Node-local stores: stable stores are handed to the owning node's
//     engines; stable.Store is additionally mutex-guarded internally.
//
// It deliberately implements no fault injection (no crashes, no drops,
// no reordering beyond goroutine scheduling): faults are the simulator's
// job, where they replay deterministically. Live runs exercise the
// concurrent happy path and timeout path only.
package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"speccat/internal/rt"
	"speccat/internal/stable"
)

// ErrUnknownNode is returned for operations on unregistered nodes.
var ErrUnknownNode = errors.New("live: unknown node")

// ErrClosed is returned for sends on a closed transport.
var ErrClosed = errors.New("live: transport closed")

// Options configure a live transport.
type Options struct {
	// Tick is the wall-clock duration of one rt.Time tick. Timeouts in
	// the engines are expressed in ticks; smaller ticks make tests
	// faster but leave less slack before a timeout misfires under a
	// loaded scheduler.
	Tick time.Duration
	// Delta is the advertised message-delay bound in ticks (the paper's
	// δ) from which engines derive phase timeouts. The adapter does not
	// enforce it; mailbox hops are far faster than any plausible value.
	Delta rt.Time
	// Tracer, when non-nil, records every delivery. Without one the
	// transport retains no message it has delivered.
	Tracer *Tracer
}

// DefaultOptions match the simulator's default δ with a 1ms tick.
func DefaultOptions() Options {
	return Options{Tick: time.Millisecond, Delta: 10}
}

// TraceEntry is one delivered message in global delivery order.
type TraceEntry struct {
	Msg rt.Message
	// DeliveredAt is the adapter's tick time at delivery.
	DeliveredAt rt.Time
}

// Tracer is the opt-in delivery recorder of the live and tcp transports.
// Each entry is appended on the delivering node's event loop just before
// its handler runs, so per-node order in the trace equals per-node
// execution order exactly; sharing one Tracer across the nodes of a
// cluster — one live.Net, or the in-process tcp transports of a test
// (tcp.Options.Tracer) — yields the cross-node interleaving that the
// E16/E17 conformance replays feed back through the deterministic runtime.
type Tracer struct {
	mu      sync.Mutex
	entries []TraceEntry
}

func (tr *Tracer) record(msg rt.Message, at rt.Time) {
	tr.mu.Lock()
	tr.entries = append(tr.entries, TraceEntry{Msg: msg, DeliveredAt: at})
	tr.mu.Unlock()
}

// Entries returns a copy of the trace so far. Read it after the cluster
// has settled; entries appended concurrently are racy to interpret.
func (tr *Tracer) Entries() []TraceEntry {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]TraceEntry(nil), tr.entries...)
}

// node is one site: its mailbox, event loop, and wiring.
type node struct {
	id      rt.NodeID
	store   *stable.Store
	handler rt.Handler

	// mailbox is an unbounded FIFO so a node can send to itself from its
	// own loop without deadlocking.
	mu    sync.Mutex
	queue []func()
	cond  *sync.Cond
	done  bool
}

func (n *node) enqueue(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.done {
		return
	}
	n.queue = append(n.queue, fn)
	n.cond.Signal()
}

// loop drains the mailbox until the node is stopped. It is the node's
// event loop: everything the rt contract serializes runs here.
func (n *node) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		n.mu.Lock()
		for len(n.queue) == 0 && !n.done {
			n.cond.Wait()
		}
		if n.done && len(n.queue) == 0 {
			n.mu.Unlock()
			return
		}
		fn := n.queue[0]
		n.queue[0] = nil
		n.queue = n.queue[1:]
		n.mu.Unlock()
		fn()
	}
}

func (n *node) stop() {
	n.mu.Lock()
	n.done = true
	n.cond.Broadcast()
	n.mu.Unlock()
}

// Net is a live rt.Transport. Construct with New, register nodes, wire
// handlers, then drive the engines; Close stops every event loop.
type Net struct {
	opts  Options
	start time.Time

	mu     sync.Mutex
	nodes  map[rt.NodeID]*node
	order  []rt.NodeID
	closed bool
	wg     sync.WaitGroup

	timerMu sync.Mutex
	timers  map[*wallTimer]struct{}
	// timersClosed gates new timer creation during shutdown; it is set
	// (under timerMu) before timerWG.Wait so no Add can race the Wait.
	timersClosed bool
	// timerWG counts in-flight wall-timer hand-off callbacks: Close joins
	// it after cancelling, so no straggler goroutine outlives Close.
	timerWG sync.WaitGroup
}

// New returns a live transport with no nodes.
func New(opts Options) *Net {
	if opts.Tick <= 0 {
		opts.Tick = time.Millisecond
	}
	if opts.Delta <= 0 {
		opts.Delta = 10
	}
	return &Net{
		opts:   opts,
		start:  time.Now(), //lint:allow nowallclock live runtime adapter: the wall clock IS this runtime's clock source
		nodes:  map[rt.NodeID]*node{},
		timers: map[*wallTimer]struct{}{},
	}
}

// Now returns elapsed wall time since construction, in ticks.
func (t *Net) Now() rt.Time {
	return rt.Time(time.Since(t.start) / t.opts.Tick) //lint:allow nowallclock live runtime adapter: the wall clock IS this runtime's clock source
}

// Delta returns the advertised message-delay bound in ticks.
func (t *Net) Delta() rt.Time { return t.opts.Delta }

// AddNode registers a node and starts its event loop. It returns the
// node's fresh stable store.
func (t *Net) AddNode(id rt.NodeID, h rt.Handler) *stable.Store {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.nodes[id]; ok {
		n.handler = h
		return n.store
	}
	n := &node{id: id, store: stable.NewStore(), handler: h}
	n.cond = sync.NewCond(&n.mu)
	t.nodes[id] = n
	t.order = append(t.order, id)
	if !t.closed {
		t.wg.Add(1)
		go n.loop(&t.wg)
	}
	return n.store
}

// SetHandler replaces a node's message handler.
func (t *Net) SetHandler(id rt.NodeID, h rt.Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.handler = h
	return nil
}

// SetRecover checks id and drops f: a live node crashes by its process
// dying, and the next process recovers by constructing its engine (see
// internal/txn/deploy.go), so this runtime has no moment to call f.
func (t *Net) SetRecover(id rt.NodeID, f rt.RecoverFunc) error {
	_, err := t.Store(id)
	return err
}

// Store returns a node's stable store.
func (t *Net) Store(id rt.NodeID) (*stable.Store, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return n.store, nil
}

// Nodes returns all node IDs in registration order.
func (t *Net) Nodes() []rt.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]rt.NodeID(nil), t.order...)
}

// Up reports whether a node is registered (live nodes never crash).
func (t *Net) Up(id rt.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.nodes[id]
	return ok
}

// Send enqueues a message onto the destination node's event loop.
func (t *Net) Send(from, to rt.NodeID, kind string, payload any) error {
	return t.Deliver(rt.Message{From: from, To: to, Kind: kind, Payload: payload, SentAt: t.Now()})
}

// Broadcast sends to every registered node including the sender.
func (t *Net) Broadcast(from rt.NodeID, kind string, payload any) error {
	for _, id := range t.Nodes() {
		if err := t.Send(from, id, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// Deliver enqueues msg onto the destination node's event loop. The
// handler runs there, never on the caller's stack; a wired Tracer records
// the delivery just before the handler runs.
func (t *Net) Deliver(msg rt.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	n, ok := t.nodes[msg.To]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, msg.To)
	}
	n.enqueue(func() {
		t.mu.Lock()
		h := n.handler
		t.mu.Unlock()
		if t.opts.Tracer != nil {
			t.opts.Tracer.record(msg, t.Now())
		}
		if h != nil {
			h(msg)
		}
	})
	return nil
}

// wallTimer adapts time.Timer to rt.Timer with hand-off to the node
// loop: the callback is enqueued, not run on the timer goroutine. The
// once/done pair retires the timer's slot in Net.timerWG exactly once,
// whether it fires or is cancelled first. The hand-off re-checks
// cancelled when it runs, so a Cancel made on the node's loop stops a
// callback that fired and was enqueued before it.
type wallTimer struct {
	t         *time.Timer
	once      sync.Once
	done      func()
	cancelled atomic.Bool
}

// finish retires the timer's in-flight accounting exactly once.
func (w *wallTimer) finish() { w.once.Do(w.done) }

func (w *wallTimer) Cancel() {
	if w == nil || w.t == nil {
		return
	}
	w.cancelled.Store(true)
	if w.t.Stop() { // before firing: the hand-off never runs, so retire its slot
		w.finish()
	}
}

// isClosed reports whether Close has begun; timer callbacks re-check it
// at execution time so a fired-but-undelivered timer drained during
// shutdown never runs engine code after Close.
func (t *Net) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// After schedules fn on node id's event loop d ticks from now. Unknown
// nodes, and nodes of a closing transport, get an inert timer (matching
// the simulator's tolerance).
func (t *Net) After(id rt.NodeID, d rt.Time, fn func()) rt.Timer {
	t.mu.Lock()
	n, ok := t.nodes[id]
	t.mu.Unlock()
	if !ok {
		return &wallTimer{}
	}
	if d < 0 {
		d = 0
	}
	t.timerMu.Lock()
	defer t.timerMu.Unlock()
	if t.timersClosed {
		return &wallTimer{}
	}
	t.timerWG.Add(1)
	w := &wallTimer{done: t.timerWG.Done}
	w.t = time.AfterFunc(time.Duration(d)*t.opts.Tick, func() { //lint:allow nowallclock live runtime adapter: the wall clock IS this runtime's clock source
		n.enqueue(func() {
			// Execution-time checks: a timer callback that was already sitting
			// in the mailbox when Close began, or when Cancel ran, must not fire.
			if t.isClosed() || w.cancelled.Load() {
				return
			}
			fn()
		})
		t.timerMu.Lock()
		delete(t.timers, w)
		t.timerMu.Unlock()
		w.finish()
	})
	t.timers[w] = struct{}{}
	return w
}

// Close cancels outstanding timers, joins their in-flight hand-off
// callbacks, and stops every node's event loop, waiting for the
// mailboxes to drain. Once Close has been invoked no After callback body
// runs — pending deliveries still drain, but a timer that fires into the
// shutdown is suppressed at execution time — and when Close returns no
// timer goroutine is in flight. The transport rejects further sends.
func (t *Net) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	nodes := make([]*node, 0, len(t.nodes))
	for _, n := range t.nodes {
		nodes = append(nodes, n)
	}
	t.mu.Unlock()
	t.timerMu.Lock()
	t.timersClosed = true
	for w := range t.timers {
		w.Cancel()
	}
	t.timers = map[*wallTimer]struct{}{}
	t.timerMu.Unlock()
	// Join stragglers: a timer that fired before its Cancel has a hand-off
	// callback in flight; it must complete (and its enqueue be recorded or
	// dropped) before the loops stop, so nothing races mailbox shutdown.
	t.timerWG.Wait()
	for _, n := range nodes {
		n.stop()
	}
	t.wg.Wait()
}

// Interface conformance.
var _ rt.Transport = (*Net)(nil)
