// Package rt is the runtime boundary of the protocol engines: the
// narrow set of interfaces — Timer, Transport, Rand — through which every
// engine (tpc, txn, kvstore, recovery, checkpoint) touches time,
// randomness and the network. The deterministic simulator (internal/sim +
// internal/simnet) implements these interfaces for verification runs; a real-goroutine
// adapter (internal/rt/live) implements them over channels and the wall
// clock for serving-path runs. The engines themselves import only this
// package, so the identical handler code runs on both runtimes and the
// port is mechanically checked rather than trusted. The check is the
// portcheck static analysis (internal/analysis/portcheck): rt-boundary
// forbids engine packages from reaching around these interfaces back to
// the simulator's concrete types, and rt-confine proves each handler's
// mutable state stays on its event loop once real goroutines replace
// the single-threaded scheduler.
//
// The concurrency contract every Transport implementation must honor,
// and which rt-confine assumes:
//
//   - Per-node serialization: all deliveries to one node's Handler, all
//     After callbacks scheduled on that node, and its RecoverFunc run
//     serially on that node's event loop — never concurrently with each
//     other. The simulator satisfies this globally (one thread); the
//     live adapter satisfies it per node (one goroutine per node); its
//     engines recover in their constructors, before SetHandler.
//   - Sends are asynchronous: Send/Broadcast never invoke the
//     destination handler on the caller's stack across nodes.
//   - Stores are node-local: Store(id) is only touched from id's event
//     loop (or before the loop starts / after it stops).
package rt

import (
	"speccat/internal/stable"
)

// Time is protocol time in abstract ticks. The simulator interprets a
// tick as one simulated millisecond of virtual time; the live adapter
// maps a tick onto a configurable real duration (default one
// millisecond of wall time).
type Time int64

// NodeID identifies a site. IDs start at 1.
type NodeID int

// Message is one network message.
type Message struct {
	From    NodeID
	To      NodeID
	Kind    string
	Payload any
	// SentAt is the send time in the sender's runtime (for tracing).
	SentAt Time
}

// Handler receives delivered messages on a node, on that node's event
// loop.
type Handler func(msg Message)

// RecoverFunc runs on a node's event loop when a crashed node restarts: it
// rebuilds the protocol layer's state from stable storage and from nothing
// the engine object still remembers. After an error the node must not serve.
type RecoverFunc func() error

// Timer is a handle to a scheduled callback; Cancel prevents it from
// firing. Cancel is safe to call multiple times and after firing.
type Timer interface {
	Cancel()
}

// Rand is the seam for protocol-visible randomness: implementations are
// the simulator's seeded source (deterministic replay) or a live
// source. Engines must not reach for math/rand globals (the norand
// design rule); they take a Rand.
type Rand interface {
	// Int63n returns a uniform int64 in [0, n).
	Int63n(n int64) int64
	// Float64 returns a uniform float64 in [0, 1).
	Float64() float64
}

// Transport is the network fabric the engines run over: message
// passing, per-node timers, per-node stable stores, and membership.
// internal/simnet.Network implements it for deterministic simulation;
// internal/rt/live.Net implements it over goroutines and channels.
type Transport interface {
	// Send transmits a message from one node to another. Sending from a
	// crashed node is an error; sending to a crashed node silently
	// discards at delivery time (the crash model of the paper).
	Send(from, to NodeID, kind string, payload any) error
	// Broadcast sends to every registered node including the sender.
	Broadcast(from NodeID, kind string, payload any) error
	// Deliver hands a message directly to the destination node's event
	// loop, bypassing the fabric's delay and fault machinery. Replay
	// harnesses use it to force a recorded interleaving; protocol code
	// has no business calling it.
	Deliver(msg Message) error

	// After schedules fn on node id's event loop d ticks from now; it
	// fires only if the node is still up (a crash cancels the site's
	// pending timers).
	After(id NodeID, d Time, fn func()) Timer
	// Now returns the current time of the runtime driving this
	// transport, in ticks.
	Now() Time
	// Delta returns the fabric's message delay bound (the paper's δ),
	// from which the engines derive their phase timeouts.
	Delta() Time

	// AddNode registers a node and returns its fresh stable store.
	AddNode(id NodeID, h Handler) *stable.Store
	// SetHandler replaces a node's message handler (protocols installed
	// after AddNode).
	SetHandler(id NodeID, h Handler) error
	// SetRecover registers a node's crash-recovery callback.
	SetRecover(id NodeID, f RecoverFunc) error
	// Store returns a node's stable store.
	Store(id NodeID) (*stable.Store, error)

	// Nodes returns all node IDs in registration order.
	Nodes() []NodeID
	// Up reports whether a node is operational.
	Up(id NodeID) bool
}

// PayloadRegistry is the registration face of a wire codec: a transport
// that serializes messages onto a real network (internal/rt/tcp) exposes
// one, and each engine package registers encode/decode functions for the
// message kinds it owns (tpc.RegisterWire, txn.RegisterWire). Encoders
// and decoders are total per kind — a decoder returns exactly the
// payload type the kind's handler asserts, and unknown kinds are an
// error at the codec, never a silent drop — mirroring the codec-totality
// discipline fsmcheck enforces on the stable-storage encodings.
type PayloadRegistry interface {
	// Register binds kind to an encode/decode pair. Registering a kind
	// twice is an error: conflicting codecs are a deployment bug, not a
	// last-writer-wins.
	Register(kind string, enc func(payload any) ([]byte, error), dec func(data []byte) (any, error)) error
}

// Quiescer is the optional synchronous-drive face of a Transport: the
// deterministic simulator can run its event queue to quiescence on the
// caller's stack. Live runtimes make progress on the wall clock instead
// and do not implement it. Harness code that wants "run until settled"
// asserts this interface — an rt interface, never a simulator concrete
// type, which is exactly the distinction portcheck's rt-boundary rule
// enforces.
type Quiescer interface {
	// RunToQuiescence executes pending work until none remains.
	RunToQuiescence()
}
