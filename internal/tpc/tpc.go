// Package tpc implements the paper's case-study protocol: the centralized
// non-blocking three-phase commit (3PC) of Fig. 3.2, with the coordinator
// FSM (q1, w1, p1, a1, c1), the cohort FSM (q2, w2, p2, a2, c2), timeout
// and failure transitions, the termination protocol (backup-coordinator
// election plus the non-blocking decision rules), and independent recovery
// from stable storage. A two-phase commit (2PC) baseline — identical
// machinery minus the prepared state — exhibits the blocking behaviour 3PC
// exists to avoid; the difference is measured in experiments E7/E8.
//
// The engines run against the rt runtime boundary (rt.Transport /
// rt.Timer), so the same handler code serves the deterministic simulator
// and the real-goroutine adapter; portcheck enforces the boundary.
//
//rt:engine
package tpc

import (
	"errors"
	"fmt"

	"speccat/internal/rt"
	"speccat/internal/stable"
)

// State is an FSM state shared by coordinator and cohort (the paper's
// q/w/p/a/c with site-role suffixes implied by context). The //fsm:state
// annotations bind each constant to its letter in the abstract model of
// internal/mc — the alias map fsmcheck's cross-validation resolves
// extracted edges through.
type State int

// FSM states.
const (
	StateInitial   State = iota + 1 //fsm:state tpc q
	StateWait                       //fsm:state tpc w
	StatePrepared                   //fsm:state tpc p
	StateAborted                    //fsm:state tpc a
	StateCommitted                  //fsm:state tpc c
)

// String renders the state in the paper's notation. It is also the
// stable-storage encoding persist writes; ParseState is its inverse, and
// fsmcheck's codec-totality check keeps the pair in sync with the
// constant set.
//
//fsm:encode tpc
func (s State) String() string {
	switch s {
	case StateInitial:
		return "q"
	case StateWait:
		return "w"
	case StatePrepared:
		return "p"
	case StateAborted:
		return "a"
	case StateCommitted:
		return "c"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Committable reports whether a site in this state may still commit
// without further information (p and c are "committable" in the paper's
// non-blocking theorem; q, w are not).
func (s State) Committable() bool {
	return s == StatePrepared || s == StateCommitted
}

// Decision is a transaction outcome.
type Decision int

// Outcomes.
const (
	DecisionNone Decision = iota
	DecisionCommit
	DecisionAbort
)

// String renders the decision; it doubles as the stable-storage encoding
// (see ParseDecision).
//
//fsm:encode tpc
func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return "none"
	case DecisionCommit:
		return "commit"
	case DecisionAbort:
		return "abort"
	default:
		return "none"
	}
}

// ErrCorrupt is wrapped by the stable-storage decoders when a persisted
// byte sequence matches no known encoding. Before this sentinel existed,
// an unknown byte silently decoded to StateInitial/DecisionNone — exactly
// the kind of drift fsmcheck's codec-totality check now forbids.
var ErrCorrupt = errors.New("tpc: corrupt persisted record")

// ParseState decodes a persisted FSM state. Every encoding State.String
// produces must decode; anything else is a wrapped ErrCorrupt.
//
//fsm:decode tpc
func ParseState(raw string) (State, error) {
	switch raw {
	case "q":
		return StateInitial, nil
	case "w":
		return StateWait, nil
	case "p":
		return StatePrepared, nil
	case "a":
		return StateAborted, nil
	case "c":
		return StateCommitted, nil
	default:
		return 0, fmt.Errorf("%w: unknown state encoding %q", ErrCorrupt, raw)
	}
}

// ParseDecision decodes a persisted outcome; unknown bytes are a wrapped
// ErrCorrupt rather than a silent DecisionNone.
//
//fsm:decode tpc
func ParseDecision(raw string) (Decision, error) {
	switch raw {
	case "none":
		return DecisionNone, nil
	case "commit":
		return DecisionCommit, nil
	case "abort":
		return DecisionAbort, nil
	default:
		return 0, fmt.Errorf("%w: unknown decision encoding %q", ErrCorrupt, raw)
	}
}

// Wire kinds for the commit protocols. The //fsm:msg annotation names the
// machine and the role whose handler must consume the kind (phase 1 flows
// cohort->coordinator, so its votes are coordinator-consumed, etc.).
//
// The //dur:requires annotations declare the write-ahead rule per kind: a
// send of the kind must be dominated by a durable write of the named class
// ("state" = the sender persisted the protocol state it is announcing,
// "decision" = the sender persisted the final outcome it is announcing).
// KindVoteNo carries no requirement: presumed abort means a no-vote is
// safe to lose and safe to send from any state. KindStateReq and
// KindStateResp only query and report state, they announce nothing new.
const (
	KindCommitReq = "tpc.commitreq" //fsm:msg tpc cohort //dur:requires state
	KindVoteYes   = "tpc.voteyes"   //fsm:msg tpc coordinator //dur:requires state
	KindVoteNo    = "tpc.voteno"    //fsm:msg tpc coordinator
	KindPrepare   = "tpc.prepare"   //fsm:msg tpc cohort //dur:requires state
	KindAck       = "tpc.ack"       //fsm:msg tpc coordinator //dur:requires state
	KindCommit    = "tpc.commit"    //fsm:msg tpc cohort //dur:requires decision
	KindAbort     = "tpc.abort"     //fsm:msg tpc cohort //dur:requires decision

	// Termination protocol (backup <-> cohorts).
	KindStateReq  = "tpc.term.statereq"  //fsm:msg tpc cohort
	KindStateResp = "tpc.term.stateresp" //fsm:msg tpc cohort
)

// txnMsg is the common payload: every protocol message names its
// transaction. Participants rides on every commit request and on nothing
// else: it tells each cohort which sites (itself included) this
// transaction's termination protocol runs over. A cohort rejects a commit
// request without it as malformed. Body is opaque to the protocol: the
// layer above's work for the receiving cohort on a commit request
// (BeginWith's bodies, Cohort.Vote's input), that cohort's reply on a
// yes-vote (Vote's output, Coordinator.OnVoteYes's input), and absent on
// every other kind.
type txnMsg struct {
	Txn          string
	Participants []rt.NodeID `json:",omitempty"`
	Body         []byte      `json:",omitempty"`
}

// stateResp answers a termination-protocol state request.
type stateResp struct {
	Txn   string
	State State
}

// Protocol selects 3PC or the 2PC baseline.
type Protocol int

// Protocols.
const (
	ThreePhase Protocol = iota + 1
	TwoPhase
)

// String names the protocol.
func (p Protocol) String() string {
	if p == TwoPhase {
		return "2PC"
	}
	return "3PC"
}

// Config tunes the engines.
type Config struct {
	// Protocol selects 3PC (default) or 2PC.
	Protocol Protocol
	// PhaseTimeout is the per-phase timeout; zero derives 4δ from the
	// network at engine construction.
	PhaseTimeout rt.Time
	// Deprecated: ScopedParticipants has no effect. The commit protocol
	// always spans exactly the sites a transaction sent work to; the field
	// stays declared only because bench/layers.go and bench/tcluster.go
	// set it by name, and goes when a PR may edit bench/.
	ScopedParticipants bool
}

// stable-storage key for a transaction's persisted state.
func stateKey(txn string) string { return "tpc/" + txn + "/state" }

// decisionKey persists final outcomes.
func decisionKey(txn string) string { return "tpc/" + txn + "/decision" }

// DurableDecision reads the outcome a site persisted for txn from its
// stable store — what the site would decide on recovery, independent of
// any volatile state. Fault explorers use it as the ground truth for
// cross-site atomicity checks that span crashes. A missing record is
// (DecisionNone, nil); a record that decodes to nothing known is a
// wrapped ErrCorrupt, never a silent DecisionNone.
func DurableDecision(st *stable.Store, txn string) (Decision, error) {
	raw, ok := st.Get(decisionKey(txn))
	if !ok {
		return DecisionNone, nil
	}
	d, err := ParseDecision(string(raw))
	if err != nil {
		return DecisionNone, fmt.Errorf("tpc: durable decision of %s: %w", txn, err)
	}
	return d, nil
}

// DurableState reads the FSM state a site persisted for txn (StateInitial
// when none was written; a wrapped ErrCorrupt when the record exists but
// decodes to no known state).
func DurableState(st *stable.Store, txn string) (State, error) {
	raw, ok := st.Get(stateKey(txn))
	if !ok {
		return StateInitial, nil
	}
	s, err := ParseState(string(raw))
	if err != nil {
		return StateInitial, fmt.Errorf("tpc: durable state of %s: %w", txn, err)
	}
	return s, nil
}
