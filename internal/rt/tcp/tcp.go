package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/live"
	"speccat/internal/stable"
)

// Transport sentinels.
var (
	// ErrClosed is returned for operations on a closed transport.
	ErrClosed = errors.New("tcp: transport closed")
	// ErrNotLocal is returned for node operations this process does not
	// host: a tcp transport runs exactly one node of the cluster config.
	ErrNotLocal = errors.New("tcp: not the local node")
	// ErrUnknownNode is returned for nodes absent from the cluster config.
	ErrUnknownNode = errors.New("tcp: unknown node")
	// ErrConfig is wrapped for malformed options.
	ErrConfig = errors.New("tcp: bad config")
)

// Options configure one node's transport.
type Options struct {
	// Local is the node this process hosts.
	Local rt.NodeID
	// Cluster maps every node ID to its listen address ("host:port").
	// All processes of one deployment share the same map.
	Cluster map[rt.NodeID]string
	// Codec translates payloads on and off the wire. Every kind the
	// deployed engines send must be registered (tpc.RegisterWire,
	// txn.RegisterWire); unknown kinds error at send, not on a peer.
	Codec *Codec
	// Tick is the wall-clock duration of one rt.Time tick (default 1ms).
	Tick time.Duration
	// Delta is the advertised message-delay bound in ticks (default 10).
	Delta rt.Time
	// Store is the local node's stable store; nil creates a fresh
	// in-memory store. cmd/tpcserve passes a file-journaled store here
	// (stable.OpenFile) so protocol state survives real process crashes.
	Store *stable.Store
	// Backoff is the reconnect schedule (zero value → DefaultBackoff).
	Backoff Backoff
	// Rand jitters the backoff schedule; nil seeds a deterministic
	// per-transport source from Seed (the rt.Rand seam, so harnesses can
	// pin schedules).
	Rand rt.Rand
	// Seed seeds the default jitter source when Rand is nil.
	Seed uint64
	// Tracer, when non-nil, records every local delivery; it is handed
	// to the composed live adapter, whose Deliver is the one record site.
	// Sharing one across in-process transports yields the global delivery
	// order E17's conformance replay feeds back through the deterministic
	// runtime.
	Tracer *live.Tracer
	// SendQueue bounds each peer's outbound frame queue (default 1024).
	// When the queue is full — a dead peer mid-backoff — the oldest
	// frames are dropped and counted, matching the crash model: sends to
	// a down node are discarded, and timeouts own the recovery.
	SendQueue int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
}

// PeerStats are one peer's wire counters (a snapshot; see Stats).
type PeerStats struct {
	// Sent counts frames written to the peer's connection.
	Sent uint64
	// Received counts frames received from the peer.
	Received uint64
	// Dropped counts frames discarded: queue overflow, failed writes (the
	// whole batch), and frames still queued or sent at shutdown.
	Dropped uint64
	// Reconnects counts re-established outbound connections (the first
	// successful dial is a connect, not a reconnect).
	Reconnects uint64
	// DecodeErrors counts inbound frames from this peer that carried an
	// unknown kind or an undecodable payload.
	DecodeErrors uint64
}

// peer is one remote node's outbound half: a bounded frame queue drained
// by a writer goroutine that owns the connection and its retry loop.
type peer struct {
	id   rt.NodeID
	addr string

	mu     sync.Mutex
	queue  [][]byte
	cond   *sync.Cond
	done   bool
	stopCh chan struct{}

	stats struct {
		sent       uint64
		dropped    uint64
		reconnects uint64
	}
}

// Net is the TCP rt.Transport: the local node's mailbox loop (composed
// from the live adapter, so delivery serialization and the Close join
// behave identically), a frame listener, and per-peer outbound workers.
type Net struct {
	opts  Options
	inner *live.Net
	store *stable.Store
	order []rt.NodeID // cluster IDs, sorted

	mu       sync.Mutex
	peers    map[rt.NodeID]*peer
	inbound  map[net.Conn]struct{}
	listener net.Listener
	closed   bool
	recv     map[rt.NodeID]*recvStats

	randMu sync.Mutex
	rand   rt.Rand

	wg sync.WaitGroup
}

// recvStats are the inbound counters, owned by Net (peer owns outbound).
type recvStats struct {
	received     uint64
	decodeErrors uint64
}

// New validates the options and builds the transport. The local node's
// event loop starts on AddNode; the listener starts on Start.
func New(opts Options) (*Net, error) {
	if opts.Codec == nil {
		return nil, fmt.Errorf("%w: nil codec", ErrConfig)
	}
	if _, ok := opts.Cluster[opts.Local]; !ok {
		return nil, fmt.Errorf("%w: local node %d not in cluster config", ErrConfig, opts.Local)
	}
	if opts.Tick <= 0 {
		opts.Tick = time.Millisecond
	}
	if opts.Delta <= 0 {
		opts.Delta = 10
	}
	if opts.SendQueue <= 0 {
		opts.SendQueue = 1024
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	r := opts.Rand
	if r == nil {
		r = &splitmix64{state: opts.Seed}
	}
	st := opts.Store
	if st == nil {
		st = stable.NewStore()
	}
	order := make([]rt.NodeID, 0, len(opts.Cluster))
	for id := range opts.Cluster {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return &Net{
		opts:    opts,
		inner:   live.New(live.Options{Tick: opts.Tick, Delta: opts.Delta, Tracer: opts.Tracer}),
		store:   st,
		order:   order,
		peers:   map[rt.NodeID]*peer{},
		inbound: map[net.Conn]struct{}{},
		recv:    map[rt.NodeID]*recvStats{},
		rand:    r,
	}, nil
}

// AddNode registers the local node and starts its event loop, returning
// the local stable store. Remote nodes are declared by the cluster
// config, not by AddNode; registering one is a no-op returning nil so
// deployment helpers that iterate the whole membership still work —
// engines must only ever touch their own store (rt contract), which
// Store enforces with ErrNotLocal.
func (t *Net) AddNode(id rt.NodeID, h rt.Handler) *stable.Store {
	if id != t.opts.Local {
		return nil
	}
	t.inner.AddNode(id, h)
	return t.store
}

// SetHandler replaces the local node's message handler.
func (t *Net) SetHandler(id rt.NodeID, h rt.Handler) error {
	if id != t.opts.Local {
		return fmt.Errorf("%w: %d (local is %d)", ErrNotLocal, id, t.opts.Local)
	}
	return t.inner.SetHandler(id, h)
}

// SetRecover checks id and drops f: the node crashes when its process
// dies, and the next one recovers by constructing its engine (live.SetRecover).
func (t *Net) SetRecover(id rt.NodeID, f rt.RecoverFunc) error {
	_, err := t.Store(id)
	return err
}

// Store returns the local node's stable store; remote stores live in
// remote processes (ErrNotLocal).
func (t *Net) Store(id rt.NodeID) (*stable.Store, error) {
	if id != t.opts.Local {
		return nil, fmt.Errorf("%w: %d (local is %d)", ErrNotLocal, id, t.opts.Local)
	}
	return t.store, nil
}

// Nodes returns the full cluster membership, sorted.
func (t *Net) Nodes() []rt.NodeID { return append([]rt.NodeID(nil), t.order...) }

// UpNodes returns the cluster membership. The transport deliberately
// does not equate connection state with liveness — a partitioned peer is
// still a member, and the engines' timeout/termination machinery owns
// failure handling — so membership is the only honest answer. It and
// LocalTime are no longer rt.Transport methods; the benchmark's traced
// transport still forwards both on this concrete type.
func (t *Net) UpNodes() []rt.NodeID { return t.Nodes() }

// Up reports cluster membership (see UpNodes).
func (t *Net) Up(id rt.NodeID) bool {
	_, ok := t.opts.Cluster[id]
	return ok
}

// Now returns elapsed time since construction, in ticks.
func (t *Net) Now() rt.Time { return t.inner.Now() }

// LocalTime reads the local clock (no modeled drift).
func (t *Net) LocalTime(id rt.NodeID) rt.Time { return t.inner.Now() }

// Delta returns the advertised message-delay bound in ticks.
func (t *Net) Delta() rt.Time { return t.opts.Delta }

// After schedules fn on the local node's event loop d ticks from now.
// Timers for remote nodes are inert: their loops run in other processes.
func (t *Net) After(id rt.NodeID, d rt.Time, fn func()) rt.Timer {
	if id != t.opts.Local {
		return inertTimer{}
	}
	return t.inner.After(id, d, fn)
}

// inertTimer never fires (remote-node timers).
type inertTimer struct{}

func (inertTimer) Cancel() {}

// Deliver hands a message directly to the local node's event loop,
// bypassing the wire; only the benchmark's traced transport calls it.
func (t *Net) Deliver(msg rt.Message) error {
	if msg.To != t.opts.Local {
		return fmt.Errorf("%w: deliver to %d (local is %d)", ErrNotLocal, msg.To, t.opts.Local)
	}
	return t.inner.Deliver(msg)
}

// Send transmits a message. The local destination short-circuits through
// the same encode/decode round-trip a remote hop takes — so codec gaps
// surface identically wherever the peer happens to live — then delivers
// onto the local mailbox; remote destinations enqueue the frame on the
// peer's outbound worker. Send never blocks on the network: a dead peer
// costs a queue slot, not a stalled event loop.
func (t *Net) Send(from, to rt.NodeID, kind string, payload any) error {
	if from != t.opts.Local {
		return fmt.Errorf("%w: send from %d (local is %d)", ErrNotLocal, from, t.opts.Local)
	}
	addr, ok := t.opts.Cluster[to]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	msg := rt.Message{From: from, To: to, Kind: kind, Payload: payload, SentAt: t.inner.Now()}
	frame, err := EncodeFrame(t.opts.Codec, msg)
	if err != nil {
		return err
	}
	if to == t.opts.Local {
		decoded, _, err := DecodeFrame(t.opts.Codec, frame)
		if err != nil {
			return err
		}
		t.bumpRecv(from, false)
		t.peerFor(to, addr).bumpSent()
		return t.inner.Deliver(decoded)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.mu.Unlock()
	t.peerFor(to, addr).enqueue(frame, t.opts.SendQueue)
	return nil
}

// peerFor returns (creating on first use) the outbound worker for id.
func (t *Net) peerFor(id rt.NodeID, addr string) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[id]
	if !ok {
		p = &peer{id: id, addr: addr, stopCh: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		t.peers[id] = p
		if id != t.opts.Local && !t.closed {
			t.wg.Add(1)
			go t.runPeer(p)
		}
	}
	return p
}

// enqueue appends a frame to the peer's bounded queue, dropping the
// oldest frame (counted) on overflow.
func (p *peer) enqueue(frame []byte, max int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		p.stats.dropped++
		return
	}
	if len(p.queue) >= max {
		p.queue = p.queue[1:]
		p.stats.dropped++
	}
	p.queue = append(p.queue, frame)
	p.cond.Signal()
}

func (p *peer) bumpSent() {
	p.mu.Lock()
	p.stats.sent++
	p.mu.Unlock()
}

// ready blocks until a frame is queued or the peer stops; false on stop.
func (p *peer) ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.done {
		p.cond.Wait()
	}
	return !p.done
}

// maxBatch caps the bytes of one batch, which still always holds a frame.
const maxBatch = 64 << 10

// take appends the queued frames to buf, oldest first, up to maxBatch
// bytes; it returns the batch and its frame count.
func (p *peer) take(buf []byte) ([]byte, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(p.queue) && (n == 0 || len(buf)+len(p.queue[n]) <= maxBatch) {
		buf = append(buf, p.queue[n]...)
		p.queue[n] = nil
		n++
	}
	p.queue = p.queue[n:]
	return buf, n
}

// stop ends the peer; the frames still queued are dropped and counted.
func (p *peer) stop() {
	p.mu.Lock()
	if !p.done {
		p.done = true
		p.stats.dropped += uint64(len(p.queue))
		p.queue = nil
		close(p.stopCh)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// runPeer is the outbound worker: dial (with capped jittered backoff) while
// the frames wait in the queue, then write each batch of them with one
// conn.Write, reconnecting on failure. A batch whose write fails is dropped
// and counted — retransmission is the protocols' job (timeouts,
// termination, recovery), not the transport's.
func (t *Net) runPeer(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	var buf []byte
	connected := false
	attempt := 0
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for p.ready() {
		if conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, t.opts.DialTimeout)
			if err != nil {
				delay := t.opts.Backoff.Delay(attempt, t.jitter())
				attempt++
				if !t.sleep(delay, p) {
					return
				}
				continue
			}
			conn = c
			attempt = 0
			p.mu.Lock()
			if connected {
				p.stats.reconnects++
			}
			p.mu.Unlock()
			connected = true
		}
		var n int
		buf, n = p.take(buf[:0])
		counter := &p.stats.sent
		if _, err := conn.Write(buf); err != nil {
			conn.Close()
			conn = nil
			counter = &p.stats.dropped
		}
		p.mu.Lock()
		*counter += uint64(n)
		p.mu.Unlock()
	}
}

// jitter returns a mutex-guarded view of the shared jitter source (the
// peer workers share one rt.Rand).
func (t *Net) jitter() rt.Rand { return lockedRand{t} }

type lockedRand struct{ t *Net }

func (l lockedRand) Int63n(n int64) int64 {
	l.t.randMu.Lock()
	defer l.t.randMu.Unlock()
	return l.t.rand.Int63n(n)
}

func (l lockedRand) Float64() float64 {
	l.t.randMu.Lock()
	defer l.t.randMu.Unlock()
	return l.t.rand.Float64()
}

// sleep waits for d or until the peer shuts down; it returns false on
// shutdown, so Close never blocks behind a backoff delay.
func (t *Net) sleep(d time.Duration, p *peer) bool {
	timer := time.NewTimer(d) //lint:allow nowallclock tcp runtime adapter: reconnect backoff paces real dial attempts on the wall clock
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-p.stopCh:
		return false
	}
}

// Start binds the local listener and begins accepting peer connections.
func (t *Net) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.listener != nil {
		return nil
	}
	l, err := net.Listen("tcp", t.opts.Cluster[t.opts.Local])
	if err != nil {
		return fmt.Errorf("tcp: listen %s: %w", t.opts.Cluster[t.opts.Local], err)
	}
	t.listener = l
	t.wg.Add(1)
	go t.acceptLoop(l)
	return nil
}

// Addr returns the bound listener address (useful with ":0" configs).
func (t *Net) Addr() net.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listener == nil {
		return nil
	}
	return t.listener.Addr()
}

// acceptLoop admits inbound connections until the listener closes.
func (t *Net) acceptLoop(l net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed || t.listener != l {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection, through a read
// buffer that takes whatever burst the kernel holds, and delivers them
// onto the local mailbox. Unknown kinds and undecodable payloads are
// counted and skipped (the frame boundary is intact); structural
// corruption closes the connection (the stream can no longer be framed).
func (t *Net) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	for {
		msg, err := ReadFrame(r, t.opts.Codec)
		if err != nil {
			if errors.Is(err, ErrUnknownKind) || errors.Is(err, ErrCodec) {
				t.bumpRecv(msg.From, true) // the header decoded: charge its sender
				continue
			}
			return // EOF, closed conn, or unframeable corruption
		}
		if msg.To != t.opts.Local {
			t.bumpRecv(msg.From, true)
			continue
		}
		t.bumpRecv(msg.From, false)
		if err := t.inner.Deliver(msg); err != nil {
			return
		}
	}
}

// bumpRecv counts one inbound frame from peer id (decode=true for a
// frame that failed to decode or was misrouted).
func (t *Net) bumpRecv(id rt.NodeID, bad bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs, ok := t.recv[id]
	if !ok {
		rs = &recvStats{}
		t.recv[id] = rs
	}
	if bad {
		rs.decodeErrors++
	} else {
		rs.received++
	}
}

// Stats snapshots the wire counters for one peer.
func (t *Net) Stats(id rt.NodeID) PeerStats {
	var out PeerStats
	t.mu.Lock()
	p := t.peers[id]
	if rs, ok := t.recv[id]; ok {
		out.Received = rs.received
		out.DecodeErrors = rs.decodeErrors
	}
	t.mu.Unlock()
	if p != nil {
		p.mu.Lock()
		out.Sent = p.stats.sent
		out.Dropped = p.stats.dropped
		out.Reconnects = p.stats.reconnects
		p.mu.Unlock()
	}
	return out
}

// CloseInbound kills the listener and every accepted connection — one
// half of a partition: peers can no longer reach this node, while its
// own outbound sends still flow. RestoreInbound undoes it. Fault
// harnesses (the partition/reconnect tests) drive these; protocol code
// has no business calling them.
func (t *Net) CloseInbound() {
	t.mu.Lock()
	l := t.listener
	t.listener = nil
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// RestoreInbound re-binds the listener after CloseInbound.
func (t *Net) RestoreInbound() error {
	return t.Start()
}

// Close shuts the transport down: listener and connections closed, peer
// workers joined, then the local event loop closed (which joins timers
// and drains the mailbox under the live adapter's shutdown contract).
func (t *Net) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	l := t.listener
	t.listener = nil
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.stop()
	}
	t.wg.Wait()
	t.inner.Close()
}

// Interface conformance.
var _ rt.Transport = (*Net)(nil)
