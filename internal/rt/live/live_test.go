package live

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"speccat/internal/rt"
)

// echoNode answers every ping with a pong, exercising send-from-handler
// (which must not deadlock the mailbox) and per-node serialization.
type echoNode struct {
	net    rt.Transport
	id     rt.NodeID
	seen   int
	notify func()
}

func (e *echoNode) handle(m rt.Message) {
	e.seen++
	if m.Kind == "ping" {
		if err := e.net.Send(e.id, m.From, "pong", nil); err != nil {
			panic(err)
		}
	}
	if e.notify != nil {
		e.notify()
	}
}

func TestLiveSendAndReply(t *testing.T) {
	tr := &Tracer{}
	net := New(Options{Tick: 100 * time.Microsecond, Delta: 5, Tracer: tr})
	defer net.Close()

	var wg sync.WaitGroup
	wg.Add(2) // one ping delivered, one pong delivered
	a := &echoNode{net: net, id: 1, notify: wg.Done}
	b := &echoNode{net: net, id: 2, notify: wg.Done}
	net.AddNode(1, a.handle)
	net.AddNode(2, b.handle)

	if err := net.Send(1, 2, "ping", nil); err != nil {
		t.Fatalf("send: %v", err)
	}
	wg.Wait()
	net.Close()

	if b.seen != 1 || a.seen != 1 {
		t.Fatalf("seen a=%d b=%d, want 1/1", a.seen, b.seen)
	}
	trace := tr.Entries()
	if len(trace) != 2 {
		t.Fatalf("trace length %d, want 2", len(trace))
	}
	if trace[0].Msg.Kind != "ping" || trace[1].Msg.Kind != "pong" {
		t.Fatalf("trace kinds %s,%s want ping,pong", trace[0].Msg.Kind, trace[1].Msg.Kind)
	}
}

func TestLiveTimerFiresOnLoop(t *testing.T) {
	net := New(Options{Tick: 100 * time.Microsecond, Delta: 5})
	defer net.Close()
	net.AddNode(1, nil)

	fired := make(chan struct{})
	net.After(1, 2, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}

	// A timer cancelled on its node's loop, as the engines cancel, must not
	// fire, even when its callback already sits in the mailbox: the loop
	// waits for every wall timer's hand-off before it cancels.
	done := make(chan struct{})
	net.After(1, 0, func() {
		stop := net.After(1, 1, func() { t.Error("cancelled timer fired") })
		for pending := 1; pending > 0; time.Sleep(100 * time.Microsecond) {
			net.timerMu.Lock()
			pending = len(net.timers)
			net.timerMu.Unlock()
		}
		stop.Cancel()
		// Enqueued behind the cancelled callback, so it runs after it.
		net.After(1, 0, func() { close(done) })
	})
	<-done
}

// TestCloseJoinsAfterCallbacks pins the shutdown-ordering contract: once
// Close has been invoked, no After callback body may run, even if the
// wall timer already fired and its callback was sitting in a node's
// mailbox behind other work. Before the fix, a fired-but-undelivered
// timer callback was drained (and executed) by the stopping event loop,
// so engine code observed a timer firing "after Close".
func TestCloseJoinsAfterCallbacks(t *testing.T) {
	net := New(Options{Tick: 100 * time.Microsecond, Delta: 5})
	defer net.Close()
	net.AddNode(1, nil)

	// Park node 1's event loop inside a callback so further mailbox
	// entries queue up behind it.
	parked := make(chan struct{})
	release := make(chan struct{})
	net.After(1, 0, func() { close(parked); <-release })
	<-parked

	var mu sync.Mutex
	fired := false
	net.After(1, 0, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	// Let the wall timer fire and enqueue its callback behind the parked
	// loop entry.
	time.Sleep(50 * time.Millisecond)

	// Unpark the loop only once Close is underway, so the queued timer
	// callback races the shutdown exactly as a busy node would.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	net.Close()

	mu.Lock()
	defer mu.Unlock()
	if fired {
		t.Fatal("After callback executed after Close was invoked")
	}
}

// TestCloseWaitsForInFlightTimer pins that Close does not return while a
// timer's hand-off goroutine is still in flight: after Close, scheduling
// state is quiescent and a straggler cannot resurrect work.
func TestCloseWaitsForInFlightTimer(t *testing.T) {
	net := New(Options{Tick: 100 * time.Microsecond, Delta: 5})
	net.AddNode(1, nil)
	for i := 0; i < 64; i++ {
		net.After(1, 0, func() {})
	}
	net.Close()
	// All timers either cancelled or joined: the registry must be empty
	// and a post-Close timer must never run.
	ran := make(chan struct{}, 1)
	net.After(1, 0, func() { ran <- struct{}{} })
	select {
	case <-ran:
		t.Fatal("timer scheduled after Close ran its callback")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestCancelledTimersAreForgotten pins that a cancelled timer leaves
// Net.timers at once: the engines cancel most of the timers they arm, and
// each one kept would hold its callback and the state that captures until
// Close. Close still stops, without deadlocking on timerMu, the timers
// that were neither fired nor cancelled.
func TestCancelledTimersAreForgotten(t *testing.T) {
	net := New(Options{Tick: time.Millisecond, Delta: 5})
	net.AddNode(1, nil)
	const hour = rt.Time(3600 * 1000)
	for i := 0; i < 1000; i++ {
		net.After(1, hour, func() { t.Error("cancelled timer fired") }).Cancel()
	}
	net.timerMu.Lock()
	kept := len(net.timers)
	net.timerMu.Unlock()
	if kept != 0 {
		t.Errorf("%d cancelled timers kept, want 0", kept)
	}
	for i := 0; i < 8; i++ {
		net.After(1, hour, func() { t.Error("timer fired after Close") })
	}
	closed := make(chan struct{})
	go func() { net.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close with outstanding timers never returned")
	}
}

// TestZeroDelayAfterIsAHandOff pins After(node, 0, fn) as a mailbox
// hand-off: the callback queues behind the deliveries already in the
// mailbox and runs on the loop, with no wall timer and no Net.timers
// entry; it never runs after Cancel, nor once Close has begun.
func TestZeroDelayAfterIsAHandOff(t *testing.T) {
	net := New(Options{Tick: time.Millisecond, Delta: 5})
	var order []string // touched only on node 1's loop, then after Close
	net.AddNode(1, func(m rt.Message) { order = append(order, m.Kind) })
	// park holds the loop in a callback until the returned channel closes.
	park := func() chan struct{} {
		parked, release := make(chan struct{}), make(chan struct{})
		net.After(1, 0, func() { close(parked); <-release })
		<-parked
		return release
	}

	release := park()
	if err := net.Send(1, 1, "delivery", nil); err != nil {
		t.Fatalf("send: %v", err)
	}
	net.After(1, 0, func() { order = append(order, "callback") })
	net.After(1, 0, func() { t.Error("cancelled callback ran") }).Cancel()
	ran := make(chan struct{})
	net.After(1, 0, func() { close(ran) })
	net.timerMu.Lock()
	kept := len(net.timers)
	net.timerMu.Unlock()
	if kept != 0 {
		t.Errorf("%d Net.timers entries for zero-delay callbacks, want 0", kept)
	}
	close(release)
	<-ran

	release = park()
	net.After(1, 0, func() { t.Error("callback ran once Close had begun") })
	closed := make(chan struct{})
	go func() { net.Close(); close(closed) }()
	for !net.isClosed() {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	<-closed
	if want := []string{"delivery", "callback"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("loop ran %q, want %q", order, want)
	}
}

func TestLiveSendReachesAll(t *testing.T) {
	net := New(Options{Tick: 100 * time.Microsecond, Delta: 5})
	defer net.Close()

	var wg sync.WaitGroup
	wg.Add(3)
	for id := rt.NodeID(1); id <= 3; id++ {
		e := &echoNode{net: net, id: id, notify: wg.Done}
		net.AddNode(id, e.handle)
	}
	for _, id := range net.Nodes() {
		if err := net.Send(1, id, "hello", nil); err != nil {
			t.Fatalf("send to %d: %v", id, err)
		}
	}
	wg.Wait()

	if err := net.Send(1, 99, "x", nil); err == nil {
		t.Fatal("send to unknown node: want error")
	}
	net.Close()
	if err := net.Send(1, 2, "x", nil); err == nil {
		t.Fatal("send after close: want error")
	}
}

// TestTracerOrderIsExecutionOrder pins what the conformance replays rest
// on: with one recorder over two nodes fed by concurrent senders, the
// trace restricted to a node is exactly the sequence its handler ran.
func TestTracerOrderIsExecutionOrder(t *testing.T) {
	tr := &Tracer{}
	net := New(Options{Tick: 100 * time.Microsecond, Delta: 5, Tracer: tr})
	defer net.Close()

	const senders, perSender = 4, 50
	var wg sync.WaitGroup
	wg.Add(2 * senders * perSender)
	ran := map[rt.NodeID]*[]int{1: {}, 2: {}} // each slice is touched only on its node's loop
	for id, log := range ran {
		log := log
		net.AddNode(id, func(m rt.Message) {
			*log = append(*log, m.Payload.(int))
			wg.Done()
		})
	}
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < perSender; i++ {
				for to := rt.NodeID(1); to <= 2; to++ {
					if err := net.Send(to, to, "n", s*perSender+i); err != nil {
						t.Errorf("send: %v", err)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	net.Close()

	traced := map[rt.NodeID][]int{}
	for _, e := range tr.Entries() {
		traced[e.Msg.To] = append(traced[e.Msg.To], e.Msg.Payload.(int))
	}
	for id, log := range ran {
		if len(*log) != senders*perSender {
			t.Fatalf("node %d ran %d deliveries, want %d", id, len(*log), senders*perSender)
		}
		if !reflect.DeepEqual(traced[id], *log) {
			t.Errorf("node %d: trace order differs from handler execution order", id)
		}
	}
}
