// Package portbad seeds one violation of every portcheck rule class: a
// bare simulator import, a type assertion reaching around the rt
// boundary, the three confinement escapes (spawned goroutine, stored
// closure, returned interior pointer), and the malformed-annotation
// variants of rt-extract.
//
//rt:engine
package portbad

import (
	"speccat/internal/rt"
	"speccat/internal/simnet" // want `rt-boundary: engine package imports the simulator package speccat/internal/simnet`
)

// kindGo is the toy engine's one wire kind.
const kindGo = "bad.go"

//rt:bogus an unknown verb // want `rt-extract: unknown directive .*rt:bogus`

// Node is the toy engine's confined role struct.
type Node struct {
	net   rt.Transport
	count int
	// cache is per-node volatile bookkeeping.
	cache map[string]int //rt:guard mutex // want `rt-extract: malformed .*rt:guard: want`
}

//rt:engine // want `rt-extract: .*rt:engine must appear in the package doc comment`

// leaked is the package-level home of the stored-closure escape.
var leaked func()

// HandleMessage dispatches the toy engine.
//
//fsm:handler toy node
func (n *Node) HandleMessage(m rt.Message) bool {
	switch m.Kind {
	case kindGo:
		n.offload()
		n.stash()
		_ = n.snapshot()
		n.drain()
	}
	return true
}

// offload ships the counter update to a goroutine — the exact mutation
// the live race probe seeds, and a data race once real goroutines
// replace the simulator's single thread.
func (n *Node) offload() {
	go func() { // want `rt-confine: handler state \(n\) escapes to a spawned goroutine`
		n.count++
	}()
}

// stash parks a closure over the receiver in a package-level variable,
// letting confined state outlive its event-loop turn.
func (n *Node) stash() {
	leaked = func() { n.count++ } // want `rt-confine: closure capturing handler state \(n\) is stored in package-level leaked`
}

// snapshot hands out the live map instead of a copy.
func (n *Node) snapshot() map[string]int {
	return n.cache // want `rt-confine: confined method returns an interior pointer to handler state \(n\.cache\)`
}

// drain reaches around the rt boundary for the simulator's concrete
// network to drive it synchronously.
func (n *Node) drain() {
	if sn, ok := n.net.(*simnet.Network); ok { // want `rt-boundary: type assertion reaches around the rt boundary to the concrete simulator type simnet\.Network`
		sn.RunToQuiescence()
	}
}
