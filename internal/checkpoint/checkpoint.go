// Package checkpoint implements the checkpointing protocol of
// Section 3.5.1 (building block 5): coordinated checkpoints taken in two
// phases — every site first saves a *tentative* checkpoint to stable
// storage and acknowledges; once the coordinator has every ack it orders
// promotion to *permanent*. A failure before promotion leaves the previous
// permanent checkpoint in force, so the set of permanent checkpoints
// always forms a consistent system state and recovery of one site never
// forces others back (no domino effect). Sites checkpoint periodically
// with a common period Π.
//
//rt:engine
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"speccat/internal/rt"
	"speccat/internal/stable"
)

// Stable-storage keys.
const (
	keyTentative = "ckpt/tentative"
	keyPermanent = "ckpt/permanent"
)

// Wire kinds. An ack announces "my tentative checkpoint is on stable
// storage", so it must be write-ahead of that save (//dur:requires);
// take and commit only order work and carry no durability claim.
const (
	kindTake   = "checkpoint.take"
	kindAck    = "checkpoint.ack" //dur:requires checkpoint
	kindCommit = "checkpoint.commit"
)

// Sentinel errors.
var (
	// ErrNoCheckpoint is returned when no permanent checkpoint exists.
	ErrNoCheckpoint = errors.New("checkpoint: no permanent checkpoint")
	// ErrEncode is wrapped when a checkpoint fails to serialize.
	ErrEncode = errors.New("checkpoint: encode checkpoint")
	// ErrNoStore is wrapped when the node's own stable store is missing.
	ErrNoStore = errors.New("checkpoint: own store missing")
)

// saved is the stable-storage encoding of one checkpoint.
type saved struct {
	Seq   int    `json:"seq"`
	State []byte `json:"state"`
}

// takeMsg orders a tentative checkpoint.
type takeMsg struct{ Seq int }

// ackMsg acknowledges a tentative checkpoint.
type ackMsg struct{ Seq int }

// commitMsg promotes tentative to permanent.
type commitMsg struct{ Seq int }

// Node is one site's checkpointing engine.
type Node struct {
	net rt.Transport
	id  rt.NodeID
	// Capture returns the site's current volatile state for saving.
	Capture func() []byte
	// OnPermanent fires when a checkpoint becomes permanent.
	OnPermanent func(seq int)

	// coordinator state
	isCoord bool
	period  rt.Time
	seq     int
	acked   map[int]map[rt.NodeID]bool
}

// New creates a checkpointing node.
func New(net rt.Transport, id rt.NodeID, capture func() []byte) *Node {
	return &Node{net: net, id: id, Capture: capture, acked: map[int]map[rt.NodeID]bool{}}
}

// StartCoordinator makes this node the checkpoint coordinator with the
// given period Π (the paper requires Π > β+δ; callers pass a period well
// above the network delay bound).
func (n *Node) StartCoordinator(period rt.Time) {
	n.isCoord = true
	n.period = period
	n.net.After(n.id, period, n.round)
}

// round runs one coordinated checkpoint.
func (n *Node) round() {
	n.seq++
	seq := n.seq
	n.acked[seq] = map[rt.NodeID]bool{}
	_ = n.net.Broadcast(n.id, kindTake, takeMsg{Seq: seq})
	if n.period > 0 {
		n.net.After(n.id, n.period, n.round)
	}
}

// TakeNow triggers an immediate checkpoint round (coordinator only).
func (n *Node) TakeNow() {
	if n.isCoord {
		n.round()
	}
}

func (n *Node) store() (*stable.Store, error) {
	st, err := n.net.Store(n.id)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNoStore, err)
	}
	return st, nil
}

// HandleMessage consumes checkpoint traffic; it reports whether the
// message was consumed, plus any stable-storage failure (the site should
// treat one as a crash: a checkpoint it cannot persist must not be acked).
//
//dur:handler
func (n *Node) HandleMessage(m rt.Message) (bool, error) {
	switch m.Kind {
	case kindTake:
		tm, ok := m.Payload.(takeMsg)
		if !ok {
			return false, nil
		}
		if err := n.saveTentative(tm.Seq); err != nil {
			return true, err
		}
		_ = n.net.Send(n.id, m.From, kindAck, ackMsg{Seq: tm.Seq})
		return true, nil
	case kindAck:
		am, ok := m.Payload.(ackMsg)
		if !ok {
			return false, nil
		}
		if !n.isCoord || n.acked[am.Seq] == nil {
			return true, nil
		}
		n.acked[am.Seq][m.From] = true
		// All *operational* sites must ack before promotion.
		for _, peer := range n.net.Nodes() {
			if n.net.Up(peer) && !n.acked[am.Seq][peer] {
				return true, nil
			}
		}
		delete(n.acked, am.Seq)
		_ = n.net.Broadcast(n.id, kindCommit, commitMsg{Seq: am.Seq})
		return true, nil
	case kindCommit:
		cm, ok := m.Payload.(commitMsg)
		if !ok {
			return false, nil
		}
		return true, n.promote(cm.Seq)
	default:
		return false, nil
	}
}

// saveTentative forces the tentative checkpoint to stable storage: the ack
// that follows promises the coordinator it survives a crash.
//
//dur:writes checkpoint
func (n *Node) saveTentative(seq int) error {
	data, err := json.Marshal(saved{Seq: seq, State: n.Capture()})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrEncode, err)
	}
	st, err := n.store()
	if err != nil {
		return err
	}
	st.Put(keyTentative, data)
	return st.Sync()
}

// promote turns the matching tentative checkpoint permanent, and forces
// it before anybody hears so.
//
//dur:writes checkpoint
func (n *Node) promote(seq int) error {
	st, err := n.store()
	if err != nil {
		return err
	}
	data, ok := st.Get(keyTentative)
	if !ok {
		return nil
	}
	var s saved
	if err := json.Unmarshal(data, &s); err != nil || s.Seq != seq {
		return nil
	}
	st.Put(keyPermanent, data)
	st.Put("ckpt/lastseq", []byte(strconv.Itoa(seq)))
	if err := st.Sync(); err != nil {
		return err
	}
	if n.OnPermanent != nil {
		n.OnPermanent(seq)
	}
	return nil
}

// Permanent reads a site's last permanent checkpoint from its stable store
// (usable while the site is down — stable storage survives crashes).
func Permanent(st *stable.Store) (seq int, state []byte, err error) {
	data, ok := st.Get(keyPermanent)
	if !ok {
		return 0, nil, ErrNoCheckpoint
	}
	var s saved
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, nil, fmt.Errorf("checkpoint: corrupt permanent checkpoint: %w", err)
	}
	return s.Seq, s.State, nil
}

// Tentative reads a site's tentative checkpoint, if any.
func Tentative(st *stable.Store) (seq int, state []byte, err error) {
	data, ok := st.Get(keyTentative)
	if !ok {
		return 0, nil, ErrNoCheckpoint
	}
	var s saved
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, nil, fmt.Errorf("checkpoint: corrupt tentative checkpoint: %w", err)
	}
	return s.Seq, s.State, nil
}

// DiscardTentative removes an unpromoted tentative checkpoint (crash
// recovery: tentative checkpoints that never committed are dropped).
func DiscardTentative(st *stable.Store) {
	st.Delete(keyTentative)
}
