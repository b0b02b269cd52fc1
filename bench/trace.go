package main

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/stable"
)

// Tracing from outside the program. The traced run assembles the four
// nodes in this process from the public constructors cmd/tpcserve uses and
// puts three decorators of its own around them: an rt.Transport wrapper
// (spans around Send, around every Handler delivery and every After
// callback), an rt.PayloadRegistry wrapper (spans and byte counts around
// each kind's encode and decode), and the stable store's OnSync hook and
// dispatch closure (fsyncs and the continuations each releases). No file
// outside bench/ knows about any of it.

// span is one traced interval. Spans of one transaction share Txn; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   int    `json:"node,omitempty"`
	Txn    string `json:"txn,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	done   []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a span that has begun. The zero value (tracing off) is inert.
type openSpan struct {
	id, parent, start int64
	name, txn         string
	node              int
}

func (t *tracer) begin(name string, node int, txn string, parent int64) openSpan {
	if !t.on.Load() {
		return openSpan{}
	}
	return openSpan{id: t.nextID.Add(1), parent: parent, start: t.now(), name: name, txn: txn, node: node}
}

func (t *tracer) end(o openSpan) { t.endAt(o, 0, 0) }

// endAt closes a span; a non-zero end overrides the clock, and bytes is the
// payload size where the span moved one.
func (t *tracer) endAt(o openSpan, end int64, bytes int) {
	if o.id == 0 {
		return
	}
	if end == 0 {
		end = t.now()
	}
	t.mu.Lock()
	t.done = append(t.done, span{ID: o.id, Parent: o.parent, Name: o.name, Node: o.node, Txn: o.txn, Start: o.start, End: end, Bytes: bytes})
	t.mu.Unlock()
}

// mark records an instant.
func (t *tracer) mark(name string, node int, parent int64) int64 {
	o := t.begin(name, node, "", parent)
	t.endAt(o, o.start, 0)
	return o.id
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.done...)
}

// txnOf reads the transaction a protocol payload belongs to. The payload
// types are unexported, but all of them carry an exported Txn field.
func txnOf(payload any) string {
	v := reflect.ValueOf(payload)
	if v.Kind() == reflect.Struct {
		if f := v.FieldByName("Txn"); f.IsValid() && f.Kind() == reflect.String {
			return f.String()
		}
	}
	return ""
}

// callerPackage names the engine package ("tpc", "txn") nearest on the
// call stack, which is how a timer is attributed to the engine that armed
// it.
func callerPackage() string {
	var pcs [8]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		// speccat/internal/tpc.(*Cohort).onPrepare -> tpc
		if rest, ok := strings.CutPrefix(f.Function, "speccat/internal/"); ok {
			if i := strings.IndexByte(rest, '.'); i >= 0 {
				return rest[:i]
			}
		}
		if !more {
			return "unknown"
		}
	}
}

// flight is a frame between its sender's Send and the receiver's handler.
type flight struct {
	send int64 // the send span
	sent int64 // when Send returned
}

type flightKey struct {
	from, to  rt.NodeID
	kind, txn string
}

// tnode is one traced node: the real transport plus the decorators' state.
type tnode struct {
	id      rt.NodeID
	net     *tcp.Net
	codec   *tcp.Codec
	store   *stable.Store
	tr      *tracer
	flights *flightTable

	// Touched only on the node's event loop: the span now running there,
	// the transaction it works for, and the Send in progress.
	cur     int64
	curTxn  string
	sending int64
	encoded int // payload bytes of the Send in progress
	// frameOverhead is the frame bytes around a kind's payload, measured
	// once per kind with the public tcp.EncodeFrame.
	frameOverhead map[string]int

	// The store calls OnSync from its syncer goroutine and, for a blocking
	// Sync, from the event loop; syncMu orders the two.
	syncMu   sync.Mutex
	lastSync int64
	batches  []int // continuations released by each traced sync
}

// flightTable links a handler delivery to the Send that caused it.
type flightTable struct {
	mu sync.Mutex
	m  map[flightKey]flight
}

func (f *flightTable) put(k flightKey, v flight) {
	f.mu.Lock()
	f.m[k] = v
	f.mu.Unlock()
}

func (f *flightTable) take(k flightKey) (flight, bool) {
	f.mu.Lock()
	v, ok := f.m[k]
	delete(f.m, k)
	f.mu.Unlock()
	return v, ok
}

// tracedNet is the rt.Transport the engines are built on.
type tracedNet struct{ n *tnode }

func (t tracedNet) Send(from, to rt.NodeID, kind string, payload any) error {
	n := t.n
	if !n.tr.on.Load() {
		n.calibrate(from, to, kind, payload)
		return n.net.Send(from, to, kind, payload)
	}
	txn := txnOf(payload)
	if n.curTxn == "" {
		n.curTxn = txn // a continuation learns its transaction from its first send
	}
	o := n.tr.begin("tcp.send", int(from), txn, n.cur)
	n.sending = o.id
	err := n.net.Send(from, to, kind, payload)
	n.sending = 0
	end := n.tr.now()
	n.flights.put(flightKey{from, to, kind, txn}, flight{send: o.id, sent: end})
	o.name = "tcp.send:" + kind
	n.tr.endAt(o, end, n.frameOverhead[kind]+n.encoded)
	return err
}

// calibrate measures, once per kind and while tracing is off, how many
// frame bytes surround the kind's payload.
func (n *tnode) calibrate(from, to rt.NodeID, kind string, payload any) {
	if _, ok := n.frameOverhead[kind]; ok {
		return
	}
	frame, err := tcp.EncodeFrame(n.codec, rt.Message{From: from, To: to, Kind: kind, Payload: payload})
	if err != nil {
		return
	}
	body, err := n.codec.Encode(kind, payload)
	if err != nil {
		return
	}
	n.frameOverhead[kind] = len(frame) - len(body)
}

func (t tracedNet) Broadcast(from rt.NodeID, kind string, payload any) error {
	for _, id := range t.n.net.Nodes() {
		if err := t.Send(from, id, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

func (t tracedNet) Deliver(msg rt.Message) error { return t.n.net.Deliver(msg) }

// After is the engines' timer call; engines only arm timers from their own
// event loop, so the running span is the cause.
func (t tracedNet) After(id rt.NodeID, d rt.Time, fn func()) rt.Timer {
	n := t.n
	name := "live.callback"
	if d > 0 {
		name = callerPackage() + ".timer"
	}
	return n.net.After(id, d, n.wrapCallback(name, n.cur, n.curTxn, fn))
}

// schedule runs fn on the node's event loop on behalf of the benchmark's
// own code (the client port, the sync dispatch), which runs on other
// goroutines and therefore names the cause itself.
func (n *tnode) schedule(name string, parent int64, txn string, fn func()) {
	n.net.After(n.id, 0, n.wrapCallback(name, parent, txn, fn))
}

func (n *tnode) wrapCallback(name string, parent int64, txn string, fn func()) func() {
	return func() {
		o := n.tr.begin(name, int(n.id), txn, parent)
		n.cur, n.curTxn = o.id, txn
		fn()
		o.txn = n.curTxn
		n.cur, n.curTxn = 0, ""
		n.tr.end(o)
	}
}

func (t tracedNet) wrapHandler(h rt.Handler) rt.Handler {
	if h == nil {
		return nil
	}
	n := t.n
	return func(m rt.Message) {
		if !n.tr.on.Load() {
			h(m)
			return
		}
		txn := txnOf(m.Payload)
		var parent int64
		if f, ok := n.flights.take(flightKey{m.From, m.To, m.Kind, txn}); ok {
			// The wire span: from the sender's Send returning to this
			// handler starting — frame write, socket, read, decode and
			// the wait in this node's mailbox.
			w := n.tr.begin("tcp.wire:"+m.Kind, int(n.id), txn, f.send)
			w.start = f.sent
			n.tr.end(w)
			parent = w.id
		}
		o := n.tr.begin("handle:"+m.Kind, int(n.id), txn, parent)
		n.cur, n.curTxn = o.id, txn
		h(m)
		n.cur, n.curTxn = 0, ""
		n.tr.end(o)
	}
}

func (t tracedNet) AddNode(id rt.NodeID, h rt.Handler) *stable.Store {
	return t.n.net.AddNode(id, t.wrapHandler(h))
}

func (t tracedNet) SetHandler(id rt.NodeID, h rt.Handler) error {
	return t.n.net.SetHandler(id, t.wrapHandler(h))
}

func (t tracedNet) SetRecover(id rt.NodeID, f rt.RecoverFunc) error {
	return t.n.net.SetRecover(id, f)
}
func (t tracedNet) Now() rt.Time                              { return t.n.net.Now() }
func (t tracedNet) LocalTime(id rt.NodeID) rt.Time            { return t.n.net.LocalTime(id) }
func (t tracedNet) Delta() rt.Time                            { return t.n.net.Delta() }
func (t tracedNet) Store(id rt.NodeID) (*stable.Store, error) { return t.n.net.Store(id) }
func (t tracedNet) Nodes() []rt.NodeID                        { return t.n.net.Nodes() }
func (t tracedNet) UpNodes() []rt.NodeID                      { return t.n.net.UpNodes() }
func (t tracedNet) Up(id rt.NodeID) bool                      { return t.n.net.Up(id) }

var _ rt.Transport = tracedNet{}

// tracedRegistry is the rt.PayloadRegistry handed to tpc.RegisterWire and
// txn.RegisterWire: every kind's encoder and decoder is registered into the
// real codec with a span around it.
type tracedRegistry struct{ n *tnode }

func (r tracedRegistry) Register(kind string, enc func(any) ([]byte, error), dec func([]byte) (any, error)) error {
	n := r.n
	return n.codec.Register(kind,
		func(p any) ([]byte, error) {
			if !n.tr.on.Load() {
				return enc(p)
			}
			// Encoding runs inside Send, on the event loop.
			o := n.tr.begin("codec.encode:"+kind, int(n.id), txnOf(p), n.sending)
			data, err := enc(p)
			n.encoded = len(data)
			n.tr.endAt(o, 0, len(data))
			return data, err
		},
		func(data []byte) (any, error) {
			if !n.tr.on.Load() {
				return dec(data)
			}
			// Decoding runs on the receiving read loop, before the frame's
			// sender is known here: the span is tied to its transaction by
			// Txn and Node, not by a parent.
			o := n.tr.begin("codec.decode:"+kind, int(n.id), "", 0)
			p, err := dec(data)
			o.txn = txnOf(p)
			n.tr.endAt(o, 0, len(data))
			return p, err
		})
}

var _ rt.PayloadRegistry = tracedRegistry{}

// onSync is the store's OnSync hook: one fsync (or in-memory sync point)
// completed. It runs on the store's syncer goroutine just before that
// goroutine dispatches the batch of continuations the sync released.
func (n *tnode) onSync(int) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	if !n.tr.on.Load() {
		n.lastSync = 0
		return
	}
	n.lastSync = n.tr.mark("stable.sync", int(n.id), 0)
	n.batches = append(n.batches, 0)
}

// dispatch is the store's sync dispatcher, as cmd/tpcserve installs it: the
// continuation is re-enqueued on the node's event loop.
func (n *tnode) dispatch(fn func()) {
	n.syncMu.Lock()
	parent := n.lastSync
	if parent != 0 {
		n.batches[len(n.batches)-1]++
	}
	n.syncMu.Unlock()
	n.schedule("stable.continuation", parent, "", fn)
}
