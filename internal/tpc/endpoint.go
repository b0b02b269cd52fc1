package tpc

import (
	"fmt"

	"speccat/internal/rt"
)

// endpoint is the part of a protocol site that does not depend on its
// role: where it lives on the network, how it reaches stable storage, and
// how it accounts for what the network or a peer got wrong. Coordinator
// and Cohort are the two projections of the commit protocol onto this one
// endpoint — each embeds it and adds only its own automaton.
type endpoint struct {
	net rt.Transport
	id  rt.NodeID
	cfg Config
	// OnDecide fires once per transaction with the site's final outcome.
	OnDecide func(txn string, d Decision)
	// Trace, when non-nil, observes every FSM transition (Fig. 3.2).
	Trace TraceFunc
	// OnMalformed, when non-nil, observes protocol messages whose payload
	// failed to decode (a peer speaking the right kind with the wrong
	// body). They are counted either way; see Malformed.
	OnMalformed func(m rt.Message)
	// OnSendError, when non-nil, observes every protocol send the network
	// refused (dead peer, crashed self). Failed sends are counted either
	// way; see SendErrors.
	OnSendError func(to rt.NodeID, kind string, err error)
	// decisions records outcomes for inspection.
	decisions  map[string]Decision
	malformed  int
	sendErrors int
}

// newEndpoint fills the config defaults both roles share: 3PC, and a
// phase timeout of 4δ derived from the network.
func newEndpoint(net rt.Transport, id rt.NodeID, cfg Config) endpoint {
	if cfg.Protocol == 0 {
		cfg.Protocol = ThreePhase
	}
	if cfg.PhaseTimeout == 0 {
		cfg.PhaseTimeout = 4 * net.Delta()
	}
	return endpoint{net: net, id: id, cfg: cfg, decisions: map[string]Decision{}}
}

// Decision reports the site's outcome for txn.
func (e *endpoint) Decision(txn string) Decision { return e.decisions[txn] }

// finish records the site's outcome for txn and tells OnDecide, once.
func (e *endpoint) finish(txn string, d Decision) {
	if _, done := e.decisions[txn]; done {
		return
	}
	e.decisions[txn] = d
	if e.OnDecide != nil {
		e.OnDecide(txn, d)
	}
}

// Malformed reports how many protocol messages this site rejected because
// their payload did not decode.
func (e *endpoint) Malformed() int { return e.malformed }

// SendErrors reports how many protocol sends the network refused.
func (e *endpoint) SendErrors() int { return e.sendErrors }

// badPayload accounts for a message of a kind this role consumes whose
// payload failed to decode, then declines it so a later handler (or the
// site's terminal drop accounting) sees it.
func (e *endpoint) badPayload(m rt.Message) bool {
	e.malformed++
	if e.OnMalformed != nil {
		e.OnMalformed(m)
	}
	return false
}

// send transmits one protocol message, routing refusals through the
// send-error accounting (SendErrors, OnSendError) instead of dropping
// them silently: the protocol cannot act on a failed send (timeouts and
// the termination protocol own that recovery), but observers can. Begin
// keeps its direct error-returning sends: a commit request that cannot
// even leave the coordinator fails the whole Begin.
func (e *endpoint) send(to rt.NodeID, kind string, payload any) {
	if err := e.net.Send(e.id, to, kind, payload); err != nil {
		e.sendErrors++
		if e.OnSendError != nil {
			e.OnSendError(to, kind, err)
		}
	}
}

// sync forces the site's pending stable writes to disk in one batch. It is
// placed exactly where an unsynced record would diverge from what
// independent recovery re-derives (see the comments at each call site).
func (e *endpoint) sync() {
	st, err := e.net.Store(e.id)
	if err != nil {
		return
	}
	_ = st.Sync()
}

// syncThen runs fn once the site's pending stable writes are durable: on
// the caller's stack under the simulator, or re-enqueued on this node's
// event loop by the store's pipelined group commit on the live serving
// path — the loop keeps absorbing concurrent transactions while the
// batched fsync settles, instead of stalling behind it.
func (e *endpoint) syncThen(fn func()) {
	st, err := e.net.Store(e.id)
	if err != nil {
		fn()
		return
	}
	st.SyncThen(fn)
}

// persist writes the FSM state to stable storage (write-ahead of the
// corresponding sends, per assumption 4).
//
//dur:writes state
func (e *endpoint) persist(txn string, s State) { e.put(stateKey(txn), s.String()) }

// persistDecision forces the final outcome for txn to stable storage.
//
//dur:writes decision
func (e *endpoint) persistDecision(txn string, d Decision) { e.put(decisionKey(txn), d.String()) }

// put writes one protocol record unless the store already holds exactly
// it: recovery re-announces outcomes it just read off the disk, and
// rewriting those would grow the journal by its history on every restart.
func (e *endpoint) put(key, val string) {
	st, err := e.net.Store(e.id)
	if err != nil {
		return
	}
	if cur, ok := st.Get(key); ok && string(cur) == val {
		return
	}
	st.Put(key, []byte(val))
}

// persistedState is one transaction's state record as recovery finds it.
type persistedState struct {
	txn   string
	state State
}

// persistedStates scans the site's stable store for every state record
// persist wrote, in key order — the input of both roles' independent
// recovery. A record ParseState rejects is a wrapped ErrCorrupt naming its
// key: a site must not recover around a hole in its protocol state.
func (e *endpoint) persistedStates() ([]persistedState, error) {
	st, err := e.net.Store(e.id)
	if err != nil {
		return nil, fmt.Errorf("tpc: recover site %d: %w", e.id, err)
	}
	var out []persistedState
	for _, key := range st.Keys() {
		txn, ok := txnOfStateKey(key)
		if !ok {
			continue
		}
		raw, _ := st.Get(key)
		s, err := ParseState(string(raw))
		if err != nil {
			return nil, fmt.Errorf("tpc: recover site %d: record %q: %w", e.id, key, err)
		}
		out = append(out, persistedState{txn, s})
	}
	return out, nil
}

// txnOfStateKey extracts the transaction from "tpc/<txn>/state".
func txnOfStateKey(key string) (string, bool) {
	const prefix, suffix = "tpc/", "/state"
	if len(key) <= len(prefix)+len(suffix) || key[:len(prefix)] != prefix || key[len(key)-len(suffix):] != suffix {
		return "", false
	}
	return key[len(prefix) : len(key)-len(suffix)], true
}
