package tcp

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/live"
)

// reserveAddrs grabs n distinct loopback addresses by binding and
// releasing ephemeral ports. The brief unbound window is tolerable in
// tests; real deployments use fixed configured ports.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		l.Close()
	}
	return addrs
}

// newPair builds and starts a two-node loopback cluster sharing a codec.
func newPair(t *testing.T, codec *Codec) (*Net, *Net) {
	t.Helper()
	addrs := reserveAddrs(t, 2)
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1]}
	var nets []*Net
	for id := rt.NodeID(1); id <= 2; id++ {
		n, err := New(Options{Local: id, Cluster: cluster, Codec: codec, Seed: uint64(id)})
		if err != nil {
			t.Fatalf("New node %d: %v", id, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("Start node %d: %v", id, err)
		}
		t.Cleanup(n.Close)
		nets = append(nets, n)
	}
	return nets[0], nets[1]
}

// collector funnels one node's deliveries into a channel.
func collector() (rt.Handler, <-chan rt.Message) {
	ch := make(chan rt.Message, 128)
	return func(m rt.Message) { ch <- m }, ch
}

func waitMsg(t *testing.T, ch <-chan rt.Message, what string) rt.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return rt.Message{}
	}
}

// TestPingPong proves two transports exchange typed payloads over real
// TCP: the payload arrives as the registered concrete type, exactly as an
// in-memory delivery would.
func TestPingPong(t *testing.T) {
	codec := newTestCodec(t)
	n1, n2 := newPair(t, codec)

	h2, ch2 := collector()
	n2.AddNode(2, h2)
	h1, ch1 := collector()
	n1.AddNode(1, h1)

	if err := n1.Send(1, 2, "test.kind", testPayload{Txn: "ping", N: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m := waitMsg(t, ch2, "ping")
	if p := m.Payload.(testPayload); p.Txn != "ping" || m.From != 1 {
		t.Fatalf("delivered %+v from %d, want ping from 1", m.Payload, m.From)
	}
	if err := n2.Send(2, 1, "test.kind", testPayload{Txn: "pong", N: 2}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m := waitMsg(t, ch1, "pong"); m.Payload.(testPayload).Txn != "pong" {
		t.Fatalf("delivered %+v, want pong", m.Payload)
	}
}

// TestSelfSendRoundTripsCodec proves a local-destination send crosses the
// same encode/decode path as a remote hop (a codec gap fails loudly even
// on loopback-to-self).
func TestSelfSendRoundTripsCodec(t *testing.T) {
	codec := newTestCodec(t)
	n1, _ := newPair(t, codec)
	h, ch := collector()
	n1.AddNode(1, h)
	if err := n1.Send(1, 1, "test.kind", testPayload{Txn: "self"}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if m := waitMsg(t, ch, "self delivery"); m.Payload.(testPayload).Txn != "self" {
		t.Fatalf("self delivery = %+v", m.Payload)
	}
	if err := n1.Send(1, 1, "unregistered.kind", nil); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unregistered self send = %v, want ErrUnknownKind", err)
	}
}

// TestCounters pins the per-peer send/receive accounting.
func TestCounters(t *testing.T) {
	codec := newTestCodec(t)
	n1, n2 := newPair(t, codec)
	h2, ch2 := collector()
	n2.AddNode(2, h2)
	n1.AddNode(1, nil)

	const total = 10
	for i := 0; i < total; i++ {
		if err := n1.Send(1, 2, "test.kind", testPayload{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < total; i++ {
		waitMsg(t, ch2, "counted message")
	}
	waitSent(t, n1, 2, total)
	if s := n2.Stats(1); s.Received != total {
		t.Fatalf("receiver stats = %+v, want Received=%d", s, total)
	}
}

// TestSendValidation pins the error surface: wrong source node, unknown
// destination, unregistered kind.
func TestSendValidation(t *testing.T) {
	codec := newTestCodec(t)
	n1, _ := newPair(t, codec)
	n1.AddNode(1, nil)
	if err := n1.Send(2, 1, "test.kind", testPayload{}); !errors.Is(err, ErrNotLocal) {
		t.Errorf("send from remote = %v, want ErrNotLocal", err)
	}
	if err := n1.Send(1, 99, "test.kind", testPayload{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("send to unknown = %v, want ErrUnknownNode", err)
	}
	if err := n1.Send(1, 2, "nope", testPayload{}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("send unregistered kind = %v, want ErrUnknownKind", err)
	}
	if _, err := n1.Store(2); !errors.Is(err, ErrNotLocal) {
		t.Errorf("remote store = %v, want ErrNotLocal", err)
	}
}

// TestPartitionReconnect kills the receiver's inbound side, proves sends
// during the partition are not silently lost without accounting (drops
// are counted), then heals the partition and proves traffic flows again
// over a fresh connection, counted as a reconnect.
func TestPartitionReconnect(t *testing.T) {
	codec := newTestCodec(t)
	n1, n2 := newPair(t, codec)
	h2, ch2 := collector()
	n2.AddNode(2, h2)
	n1.AddNode(1, nil)

	// Establish the connection.
	if err := n1.Send(1, 2, "test.kind", testPayload{Txn: "pre"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitMsg(t, ch2, "pre-partition delivery")

	// Partition: node 2 unreachable.
	n2.CloseInbound()

	// Sends during the partition eventually fail the established
	// connection; the writer drops and retries with backoff.
	deadline := time.Now().Add(10 * time.Second)
	for n1.Stats(2).Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no drop recorded during partition; stats = %+v", n1.Stats(2))
		}
		if err := n1.Send(1, 2, "test.kind", testPayload{Txn: "lost"}); err != nil {
			t.Fatalf("Send during partition: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal. The writer's dial loop reconnects and later frames deliver.
	if err := n2.RestoreInbound(); err != nil {
		t.Fatalf("RestoreInbound: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := n1.Send(1, 2, "test.kind", testPayload{Txn: "post"}); err != nil {
			t.Fatalf("Send after heal: %v", err)
		}
		select {
		case m := <-ch2:
			if m.Payload.(testPayload).Txn == "post" {
				if s := n1.Stats(2); s.Reconnects == 0 {
					t.Fatalf("healed without counting a reconnect: %+v", s)
				}
				return
			}
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after healing the partition")
		}
	}
}

// TestQueueOverflowDrops pins the bounded-queue policy: with the peer
// down, a tiny queue overflows and drops are counted, while Send itself
// never blocks or errors (the crash model: losses are the timeouts'
// problem).
func TestQueueOverflowDrops(t *testing.T) {
	codec := newTestCodec(t)
	addrs := reserveAddrs(t, 2)
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1]}
	n1, err := New(Options{Local: 1, Cluster: cluster, Codec: codec, SendQueue: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n1.Close()
	n1.AddNode(1, nil)
	// Node 2 has not started; every frame queues against a dead peer.
	for i := 0; i < 64; i++ {
		if err := n1.Send(1, 2, "test.kind", testPayload{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if i == 0 {
			time.Sleep(20 * time.Millisecond) // let the worker start dialing
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for n1.Stats(2).Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("overflow not counted; stats = %+v", n1.Stats(2))
		}
		time.Sleep(time.Millisecond)
	}

	// The newest SendQueue frames survive: the writer leaves frames queued
	// while it dials, so none is held outside the queue's bound.
	n2, err := New(Options{Local: 2, Cluster: cluster, Codec: codec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n2.Close()
	h2, ch2 := collector()
	n2.AddNode(2, h2)
	if err := n2.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for want := 60; want < 64; want++ {
		if got := waitMsg(t, ch2, "a surviving frame").Payload.(testPayload).N; got != want {
			t.Fatalf("delivered frame %d, want %d", got, want)
		}
	}
	waitSent(t, n1, 2, 4)
	if s := n1.Stats(2); s.Dropped != 60 {
		t.Fatalf("stats = %+v, want Dropped=60", s)
	}
}

// TestFramesQueuedWhilePeerIsDownArriveInOrder sends before the peer
// listens: every frame waits in the queue and arrives, in order, once the
// writer connects.
func TestFramesQueuedWhilePeerIsDownArriveInOrder(t *testing.T) {
	codec := newTestCodec(t)
	addrs := reserveAddrs(t, 2)
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1]}
	n1, err := New(Options{Local: 1, Cluster: cluster, Codec: codec,
		Backoff: Backoff{Base: time.Millisecond, Cap: 10 * time.Millisecond}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n1.Close()
	n1.AddNode(1, nil)
	const n = 100
	for i := 0; i < n; i++ {
		if err := n1.Send(1, 2, "test.kind", testPayload{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	n2, err := New(Options{Local: 2, Cluster: cluster, Codec: codec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n2.Close()
	h2, ch2 := collector()
	n2.AddNode(2, h2)
	if err := n2.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for want := 0; want < n; want++ {
		if got := waitMsg(t, ch2, "a queued frame").Payload.(testPayload).N; got != want {
			t.Fatalf("delivered frame %d, want %d", got, want)
		}
	}
	waitSent(t, n1, 2, n)
	if s := n1.Stats(2); s.Dropped != 0 {
		t.Fatalf("stats = %+v, want Dropped=0", s)
	}
}

// waitSent waits until n's counters show sent frames to peer.
func waitSent(t *testing.T, n *Net, peer rt.NodeID, sent uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats(peer).Sent != sent {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want Sent=%d", n.Stats(peer), sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDecodeErrorsChargeTheSender writes, on one raw connection, a frame of
// an unregistered kind, a frame whose payload does not decode and a valid
// frame: both bad frames count against their sender, and the connection
// survives to deliver the third.
func TestDecodeErrorsChargeTheSender(t *testing.T) {
	codec := newTestCodec(t)
	_, n2 := newPair(t, codec)
	h2, ch2 := collector()
	n2.AddNode(2, h2)

	wide := newTestCodec(t)
	enc, dec := jsonCodecFor[testPayload]()
	if err := wide.Register("other.kind", enc, dec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var stream []byte
	for i, m := range []struct {
		codec *Codec
		kind  string
	}{{wide, "other.kind"}, {codec, "test.kind"}, {codec, "test.kind"}} {
		f, err := EncodeFrame(m.codec, rt.Message{From: 1, To: 2, Kind: m.kind, Payload: testPayload{N: i}})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if i == 1 {
			f[len(f)-1] = '{' // break the JSON payload
		}
		stream = append(stream, f...)
	}
	conn, err := net.Dial("tcp", n2.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatalf("write: %v", err)
	}
	if m := waitMsg(t, ch2, "the valid frame"); m.Payload.(testPayload).N != 2 {
		t.Fatalf("delivered %+v, want frame 2", m.Payload)
	}
	if s := n2.Stats(1); s.DecodeErrors != 2 || s.Received != 1 {
		t.Fatalf("stats of the sender = %+v, want DecodeErrors=2 Received=1", s)
	}
}

// TestCloseUnblocksBackoff proves Close returns promptly even while a
// peer worker is mid-backoff against a dead address.
func TestCloseUnblocksBackoff(t *testing.T) {
	codec := newTestCodec(t)
	addrs := reserveAddrs(t, 2)
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1]}
	n1, err := New(Options{
		Local: 1, Cluster: cluster, Codec: codec,
		Backoff: Backoff{Base: time.Hour, Cap: time.Hour},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n1.AddNode(1, nil)
	if err := n1.Send(1, 2, "test.kind", testPayload{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker enter its backoff wait
	done := make(chan struct{})
	go func() { n1.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind an hour-long backoff")
	}
}

// TestHandlerSerialization sends concurrently from two peers and proves
// the local handler never runs reentrantly — the rt-confine contract on
// a transport fed by multiple OS-level connections.
func TestHandlerSerialization(t *testing.T) {
	codec := newTestCodec(t)
	addrs := reserveAddrs(t, 3)
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1], 3: addrs[2]}
	var nets []*Net
	for id := rt.NodeID(1); id <= 3; id++ {
		n, err := New(Options{Local: id, Cluster: cluster, Codec: codec})
		if err != nil {
			t.Fatalf("New %d: %v", id, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("Start %d: %v", id, err)
		}
		t.Cleanup(n.Close)
		nets = append(nets, n)
	}
	var mu sync.Mutex
	inHandler := false
	seen := 0
	doneCh := make(chan struct{})
	nets[0].AddNode(1, func(m rt.Message) {
		mu.Lock()
		if inHandler {
			mu.Unlock()
			t.Error("handler reentered")
			return
		}
		inHandler = true
		mu.Unlock()
		mu.Lock()
		inHandler = false
		seen++
		if seen == 200 {
			close(doneCh)
		}
		mu.Unlock()
	})
	nets[1].AddNode(2, nil)
	nets[2].AddNode(3, nil)
	for i := 0; i < 100; i++ {
		if err := nets[1].Send(2, 1, "test.kind", testPayload{N: i}); err != nil {
			t.Fatalf("Send from 2: %v", err)
		}
		if err := nets[2].Send(3, 1, "test.kind", testPayload{N: i}); err != nil {
			t.Fatalf("Send from 3: %v", err)
		}
	}
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := seen
		mu.Unlock()
		t.Fatalf("only %d/200 deliveries", n)
	}
}

// TestSharedTracerOrder wires one live.Tracer into two transports, as the
// E17 cluster does, and proves the recorder sees every delivery — wire
// hops and self-sends alike — with each node's entries in the order its
// handler executed them.
func TestSharedTracerOrder(t *testing.T) {
	codec := newTestCodec(t)
	addrs := reserveAddrs(t, 2)
	cluster := map[rt.NodeID]string{1: addrs[0], 2: addrs[1]}
	tr := &live.Tracer{}
	nets := map[rt.NodeID]*Net{}
	for id := range cluster {
		n, err := New(Options{Local: id, Cluster: cluster, Codec: codec, Tracer: tr})
		if err != nil {
			t.Fatalf("New %d: %v", id, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("Start %d: %v", id, err)
		}
		t.Cleanup(n.Close)
		nets[id] = n
	}

	const perSender = 50
	var wg sync.WaitGroup
	wg.Add(4 * perSender)                             // each node hears itself and its peer
	ran := map[rt.NodeID]*[]testPayload{1: {}, 2: {}} // each slice is touched only on its node's loop
	for id, n := range nets {
		log := ran[id]
		n.AddNode(id, func(m rt.Message) {
			*log = append(*log, m.Payload.(testPayload))
			wg.Done()
		})
	}
	for from, n := range nets {
		go func(from rt.NodeID, n *Net) {
			for i := 0; i < perSender; i++ {
				for to := range cluster {
					if err := n.Send(from, to, "test.kind", testPayload{Txn: fmt.Sprint(from), N: i}); err != nil {
						t.Errorf("send %d->%d: %v", from, to, err)
					}
				}
			}
		}(from, n)
	}
	wg.Wait()
	for _, n := range nets {
		n.Close()
	}

	traced := map[rt.NodeID][]testPayload{}
	for _, e := range tr.Entries() {
		traced[e.Msg.To] = append(traced[e.Msg.To], e.Msg.Payload.(testPayload))
	}
	for id, log := range ran {
		if len(*log) != 2*perSender {
			t.Fatalf("node %d ran %d deliveries, want %d", id, len(*log), 2*perSender)
		}
		if !reflect.DeepEqual(traced[id], *log) {
			t.Errorf("node %d: trace order differs from handler execution order", id)
		}
	}
}
