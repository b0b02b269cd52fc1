// Package simnet simulates the network of the paper's assumption set
// (Section 3.4): a reliable, non-partitioning network with FIFO two-way
// channels between sites, bounded message delay, crash/recovery of
// sites, and timeout timers. A crash is what kill -9 of
// a serving process is: the node's timers die, its store freezes and
// reverts to what its last Sync covered, and the engines' RecoverFuncs
// start from that store and nothing else (rt.RecoverFunc). A handler the
// crash interrupted mid-fan-out (SendFault.CrashSender) may still run to
// its end on the dead node's stack; nothing it does reaches the disk, the
// network or the restart.
// Failure injection hooks (message drop, delay inflation)
// exist so tests can deliberately violate each assumption and observe which
// protocol invariants break (experiment E10). The SendHook schedule
// injection API additionally lets a fault explorer (internal/explore)
// target individual sends — dropping or delaying message #k, or crashing
// the sender between two sends of one fan-out, the interleaving that
// distinguishes the protocol variants in internal/mc.
package simnet

import (
	"errors"
	"fmt"

	"speccat/internal/rt"
	"speccat/internal/sim"
	"speccat/internal/stable"
)

// NodeID identifies a site. IDs start at 1. Alias of rt.NodeID: the
// simulated network implements the rt.Transport runtime boundary, and
// the aliases keep sim-facing harness code and rt-facing engine code on
// one type system.
type NodeID = rt.NodeID

// Message is one network message (alias of rt.Message).
type Message = rt.Message

// Handler receives delivered messages on a node (alias of rt.Handler).
type Handler = rt.Handler

// RecoverFunc is invoked when a crashed node restarts; the protocol layer
// rebuilds volatile state from stable storage inside it (alias of
// rt.RecoverFunc).
type RecoverFunc = rt.RecoverFunc

// SendFault is a per-send fault injected by a SendHook. The zero value
// means "no fault": the send proceeds normally.
type SendFault struct {
	// Drop discards the message (it is never delivered).
	Drop bool
	// Delay adds extra latency on top of the sampled delivery delay.
	Delay sim.Time
	// CrashSender crashes the sending node *before* this message is
	// transmitted: the message is lost and the sender is down. This is the
	// interleaving the paper's assumption 3 (synchronous state transition)
	// rules out — a site failing between two sends of one fan-out — and it
	// is exactly where internal/mc shows naive 3PC loses atomicity.
	CrashSender bool
}

// SendHook observes every send attempt by an operational node and may
// inject a fault. seq is a global, deterministic send sequence number
// (the i-th Send call by any up node is seq i, starting at 0), which
// gives fault schedules a stable coordinate system across replays.
type SendHook func(seq uint64, msg Message) SendFault

// Sentinel errors.
var (
	// ErrUnknownNode is returned for operations on unregistered nodes.
	ErrUnknownNode = errors.New("simnet: unknown node")
	// ErrNodeDown is returned when sending from a crashed node.
	ErrNodeDown = errors.New("simnet: node is down")
)

// Options configures the network.
type Options struct {
	// MinDelay/MaxDelay bound message latency (ticks). The broadcast bound
	// delta of the paper is MaxDelay.
	MinDelay, MaxDelay sim.Time
	// DropRate, in [0,1), drops messages at random — OFF (0) under the
	// paper's reliable-network assumption; tests raise it for E10.
	DropRate float64
	// FIFO preserves per-channel ordering (assumption 1). Tests may
	// disable it to violate the assumption.
	FIFO bool
}

// DefaultOptions satisfy the paper's assumption set.
func DefaultOptions() Options {
	return Options{MinDelay: 1, MaxDelay: 10, FIFO: true}
}

// node is one site's bookkeeping.
type node struct {
	id        NodeID
	up        bool
	handler   Handler
	onRecover RecoverFunc
	store     *stable.Store
	timers    []*sim.Timer
}

// Network simulates the message fabric among registered nodes.
type Network struct {
	sched *sim.Scheduler
	opts  Options
	nodes map[NodeID]*node
	order []NodeID
	// lastArrival enforces FIFO per directed channel.
	lastArrival map[[2]NodeID]sim.Time
	// partitioned marks unordered pairs that cannot communicate.
	partitioned map[[2]NodeID]bool
	// stats
	sent, delivered, dropped int
	// sendSeq numbers every send attempt by an up node (see SendHook).
	sendSeq uint64
	// OnSend, when non-nil, is consulted on every send attempt and may
	// inject a per-message fault (the schedule injection API).
	OnSend SendHook
	// Trace, when non-nil, receives every delivered message.
	Trace func(Message)
	// OnCrash, when non-nil, observes every crash (explicit Crash calls
	// and SendFault.CrashSender injections alike).
	OnCrash func(id NodeID)
}

// New creates a network over the given scheduler.
func New(sched *sim.Scheduler, opts Options) *Network {
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = opts.MinDelay
	}
	return &Network{
		sched:       sched,
		opts:        opts,
		nodes:       map[NodeID]*node{},
		lastArrival: map[[2]NodeID]sim.Time{},
		partitioned: map[[2]NodeID]bool{},
	}
}

// Scheduler exposes the underlying scheduler. Simulation harnesses
// (explorers, tests, CLIs) drive it directly; engine packages stay on
// the rt.Transport face of this network and never see it.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Now returns the current simulated time (rt.Transport).
func (n *Network) Now() sim.Time { return n.sched.Now() }

// RunToQuiescence executes pending events until none remain
// (rt.Quiescer): the simulator's synchronous drive.
func (n *Network) RunToQuiescence() { n.sched.Run(0) }

// AddNode registers a node with a fresh stable store.
func (n *Network) AddNode(id NodeID, h Handler) *stable.Store {
	nd := &node{id: id, up: true, handler: h, store: stable.NewStore()}
	n.nodes[id] = nd
	n.order = append(n.order, id)
	return nd.store
}

// SetHandler replaces a node's message handler (protocols installed after
// AddNode).
func (n *Network) SetHandler(id NodeID, h Handler) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	nd.handler = h
	return nil
}

// SetRecover registers a node's crash-recovery callback.
func (n *Network) SetRecover(id NodeID, f RecoverFunc) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	nd.onRecover = f
	return nil
}

// Nodes returns all node IDs in registration order.
func (n *Network) Nodes() []NodeID { return append([]NodeID{}, n.order...) }

// Up reports whether a node is operational.
func (n *Network) Up(id NodeID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.up
}

// Store returns a node's stable store.
func (n *Network) Store(id NodeID) (*stable.Store, error) {
	nd, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return nd.store, nil
}

// Send transmits a message; delivery is scheduled per the network options.
// Sending from a crashed node is an error; sending to a crashed node
// silently discards at delivery time (the paper's crash model).
func (n *Network) Send(from, to NodeID, kind string, payload any) error {
	src, ok := n.nodes[from]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	if !src.up {
		return fmt.Errorf("%w: %d", ErrNodeDown, from)
	}
	if _, ok := n.nodes[to]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	n.sent++
	msg := Message{From: from, To: to, Kind: kind, Payload: payload, SentAt: n.sched.Now()}

	var fault SendFault
	seq := n.sendSeq
	n.sendSeq++
	if n.OnSend != nil {
		fault = n.OnSend(seq, msg)
	}
	if fault.CrashSender {
		// The sender dies before this message leaves: the message is lost
		// and every later send from this node fails with ErrNodeDown.
		n.crash(src)
		n.dropped++
		return fmt.Errorf("%w: %d (crashed at send %d)", ErrNodeDown, from, seq)
	}

	if n.isPartitioned(from, to) {
		n.dropped++
		return nil
	}
	if fault.Drop {
		n.dropped++
		return nil
	}
	if n.opts.DropRate > 0 && n.sched.Rand().Float64() < n.opts.DropRate {
		n.dropped++
		return nil
	}

	delay := n.opts.MinDelay
	if span := n.opts.MaxDelay - n.opts.MinDelay; span > 0 {
		delay += sim.Time(n.sched.Rand().Int63n(int64(span) + 1))
	}
	delay += fault.Delay
	at := n.sched.Now() + delay
	if n.opts.FIFO {
		ch := [2]NodeID{from, to}
		if last := n.lastArrival[ch]; at <= last {
			at = last + 1
		}
		n.lastArrival[ch] = at
	}
	n.sched.At(at, func() { n.deliver(msg) })
	return nil
}

func (n *Network) deliver(msg Message) {
	dst, ok := n.nodes[msg.To]
	if !ok || !dst.up || dst.handler == nil {
		n.dropped++
		return
	}
	n.delivered++
	if n.Trace != nil {
		n.Trace(msg)
	}
	dst.handler(msg)
}

// Deliver hands a message directly to the destination node's handler,
// bypassing delay, FIFO and fault machinery (rt.Transport). Replay
// harnesses use it to force a recorded interleaving onto the
// deterministic engines; delivery to an unknown node is an error, to a
// crashed node a silent drop (the crash model).
func (n *Network) Deliver(msg Message) error {
	if _, ok := n.nodes[msg.To]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, msg.To)
	}
	n.deliver(msg)
	return nil
}

// Broadcast sends to every registered node including the sender itself
// (self-delivery is immediate protocol convention: it goes through the
// same delay machinery for uniformity).
func (n *Network) Broadcast(from NodeID, kind string, payload any) error {
	for _, id := range n.order {
		if err := n.Send(from, id, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// After schedules fn on a node's behalf; it fires only if the node is
// still up (a crash cancels the site's pending timers implicitly). The
// returned handle is the rt.Timer interface so ported engines hold no
// simulator concrete type.
func (n *Network) After(id NodeID, d sim.Time, fn func()) rt.Timer {
	t := n.sched.After(d, func() {
		if nd, ok := n.nodes[id]; ok && nd.up {
			fn()
		}
	})
	if nd, ok := n.nodes[id]; ok {
		nd.timers = append(nd.timers, t)
	}
	return t
}

// Crash takes a node down: its volatile state is gone, its timers are
// dead, in-flight messages to it will be discarded. Stable storage stays,
// up to its last sync.
func (n *Network) Crash(id NodeID) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	n.crash(nd)
	return nil
}

func (n *Network) crash(nd *node) {
	if !nd.up {
		return
	}
	nd.up = false
	// Freeze the node's stable storage: a crashed site cannot force
	// anything more to disk, even if handler code on its stack keeps
	// running (e.g. a SendFault that crashes the sender mid-handler).
	// Reads stay live — what a Sync covered survives the crash.
	nd.store.SetFrozen(true)
	for _, t := range nd.timers {
		t.Cancel()
	}
	nd.timers = nil
	if n.OnCrash != nil {
		n.OnCrash(nd.id)
	}
}

// Recover restarts a crashed node and invokes its recovery callback. A
// node whose callback fails goes back down — it must not serve a partial
// state — and the callback's error is returned.
func (n *Network) Recover(id NodeID) error {
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if nd.up {
		return nil
	}
	nd.up = true
	// Thaw before the recovery callback runs: recovery reads the frozen
	// contents and must be able to persist its own repairs.
	nd.store.SetFrozen(false)
	if nd.onRecover != nil {
		if err := nd.onRecover(); err != nil {
			n.crash(nd)
			return fmt.Errorf("simnet: recover node %d: %w", id, err)
		}
	}
	return nil
}

// Partition cuts communication between a and b (both directions). The
// paper assumes no partitions; tests use this for E10.
func (n *Network) Partition(a, b NodeID) { n.partitioned[pairKey(a, b)] = true }

// Heal restores communication between a and b.
func (n *Network) Heal(a, b NodeID) { delete(n.partitioned, pairKey(a, b)) }

func (n *Network) isPartitioned(a, b NodeID) bool { return n.partitioned[pairKey(a, b)] }

func pairKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Stats reports message counters.
func (n *Network) Stats() (sent, delivered, dropped int) {
	return n.sent, n.delivered, n.dropped
}

// SendSeq returns the next send sequence number — equivalently, how many
// send attempts by up nodes have occurred. Fault explorers probe a run
// once to learn this range and then place send-targeted faults inside it.
func (n *Network) SendSeq() uint64 { return n.sendSeq }

// Delta returns the network's message delay bound (the paper's δ).
func (n *Network) Delta() sim.Time { return n.opts.MaxDelay }
