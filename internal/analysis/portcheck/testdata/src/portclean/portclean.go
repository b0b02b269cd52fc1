// Package portclean is a zero-finding portcheck fixture: a miniature
// engine exercising every annotation and every no-false-positive case —
// rt-only imports with a reasoned //lint:allow on the harness's simulator
// import, an event-loop timer closure capturing the receiver (safe: After
// callbacks run on the node's loop), a //rt:guard-annotated metrics pair
// touched from a spawned goroutine, and a send wrapper on the receiver.
//
//rt:engine
package portclean

import (
	"sync"

	"speccat/internal/rt"
	"speccat/internal/simnet" //lint:allow rt-boundary harness constructor owns the simulator wiring
)

// State is the toy engine's state machine.
type State string

// States of the toy engine.
const (
	StateIdle State = "idle" //fsm:state
	StateWait State = "wait" //fsm:state
	StateDone State = "done" //fsm:state
)

// Wire kinds of the toy engine.
const (
	kindPing   = "clean.ping"
	kindVote   = "clean.vote"
	kindCommit = "clean.commit"
	kindAbort  = "clean.abort"
)

// Node is the toy engine's confined role struct.
type Node struct {
	net   rt.Transport
	id    rt.NodeID
	state State
	timer rt.Timer
	mu    sync.Mutex //rt:guard mutex the mutex itself is the off-loop synchronization point
	stats int        //rt:guard mutex metrics counter scraped off-loop under mu
}

// New builds a node on any rt runtime.
func New(net rt.Transport, id rt.NodeID) *Node {
	return &Node{net: net, id: id, state: StateIdle}
}

// NewOnSim is the simulator harness constructor; the suppressed import
// above exists for its signature only — the engine proper sees rt.Transport.
func NewOnSim(net *simnet.Network, id rt.NodeID) *Node {
	return New(net, id)
}

// send forwards to the transport.
func (n *Node) send(to rt.NodeID, kind string, payload any) {
	_ = n.net.Send(n.id, to, kind, payload)
}

// HandleMessage dispatches the toy engine.
//
//fsm:handler toy node
func (n *Node) HandleMessage(m rt.Message) bool {
	switch m.Kind {
	case kindPing:
		n.state = StateWait
		n.send(m.From, kindVote, nil)
		n.timer = n.net.After(n.id, n.net.Delta(), func() { n.onTimeout() })
	case kindVote:
		kind := kindCommit
		if m.Payload == nil {
			kind = kindAbort
		}
		n.state = StateDone
		n.bump()
		for _, p := range n.net.Nodes() {
			n.send(p, kind, nil)
		}
	}
	return true
}

// onTimeout runs on the node's event loop (the rt.Transport contract for
// After callbacks), so touching n.state here is confined.
func (n *Node) onTimeout() {
	if n.state == StateWait {
		n.state = StateDone
		n.send(n.id, kindAbort, nil)
	}
}

// bump publishes a metrics tick to an off-loop scraper goroutine; both
// fields it touches carry //rt:guard mutex, which is what makes the
// spawned goroutine legal.
func (n *Node) bump() {
	go func() {
		n.mu.Lock()
		n.stats++
		n.mu.Unlock()
	}()
}

// Stats is the off-loop scraper's read face: the guard annotation on
// stats exempts it from the interior-pointer rule too.
func (n *Node) Stats() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}
