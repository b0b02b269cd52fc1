package tpc

import (
	"fmt"
	"sort"

	"speccat/internal/rt"
)

// coordTxn is the coordinator's state for a transaction it has not yet
// decided. Once the decision is announced the entry goes: a decided
// transaction is its decision (endpoint.decisions) and its durable
// records, from which RecoverAll re-derives the outcome.
type coordTxn struct {
	state State
	votes map[rt.NodeID]bool // yes-votes received
	acks  map[rt.NodeID]bool
	timer rt.Timer
	// parts is the site set this transaction's fan-out spans (BeginWith).
	parts []rt.NodeID
}

// Coordinator drives commit processing for transactions whose master runs
// on this site (the paper's Fig. 3.1 master process).
type Coordinator struct {
	endpoint
	cohorts []rt.NodeID
	txns    map[string]*coordTxn
	// OnVoteYes, when non-nil, reads the body of each yes-vote that counts
	// (its transaction undecided in w1) before the vote is counted; false
	// makes it a no vote, as for a reply the layer above cannot read.
	OnVoteYes func(txn string, from rt.NodeID, body []byte) bool
}

// NewCoordinator creates a coordinator on site id managing the given
// cohort sites.
func NewCoordinator(net rt.Transport, id rt.NodeID, cohorts []rt.NodeID, cfg Config) *Coordinator {
	return &Coordinator{
		endpoint: newEndpoint(net, id, cfg),
		cohorts:  append([]rt.NodeID{}, cohorts...), txns: map[string]*coordTxn{},
	}
}

// newTxn returns a fresh transaction record spanning participants, held
// as the coordinator's own copy.
func (c *Coordinator) newTxn(participants []rt.NodeID) *coordTxn {
	return &coordTxn{
		votes: map[rt.NodeID]bool{}, acks: map[rt.NodeID]bool{},
		parts: append([]rt.NodeID{}, participants...),
	}
}

// Begin starts the commit protocol for txn over every cohort the
// coordinator manages — the work-less harnesses' (Group) participant set.
func (c *Coordinator) Begin(txn string) error { return c.BeginWith(txn, c.cohorts, nil) }

// BeginWith starts the commit protocol for txn over exactly the given
// participant sites — the one fan-out there is: the coordinator moves
// q1→w1 and multicasts the commit request, which names them, to them;
// bodies, when non-nil, holds one body per participant, in order, and
// each request carries its receiver's. An empty set means the transaction
// touched no data site: there is nothing to prepare and nobody to wait
// for, so it commits immediately. It is not message dispatch, so it opts
// into the durability analysis explicitly.
//
// The w1 record is deliberately not forced *under 3PC* before the commit
// requests leave: a coordinator that crashes with an unsynced w recovers
// to q, decides nothing, and the cohorts' termination protocol aborts —
// the same outcome recovery-from-w would reach. 2PC has no termination
// protocol: a recordless coordinator would leave the yes-voters in w for
// good, so there w1 is forced and recovery from it announces the abort.
//
// A refused commit request is counted in SendErrors and is a no vote: the
// fan-out stops and the coordinator aborts from w1, which needs no force
// (recovery from w1 aborts too). A decided transaction keeps only its
// decision, so a name is taken while it runs and once it is decided.
//
//dur:handler
func (c *Coordinator) BeginWith(txn string, participants []rt.NodeID, bodies [][]byte) error {
	if _, dup := c.txns[txn]; dup || c.Decision(txn) != DecisionNone {
		return fmt.Errorf("tpc: transaction %s already begun", txn)
	}
	ct := c.newTxn(participants)
	ct.state = StateWait
	c.txns[txn] = ct
	c.emit(txn, StateInitial, StateWait, CauseMessage)
	c.persist(txn, StateWait)
	if len(ct.parts) == 0 {
		c.commit(txn, ct, CauseMessage)
		return nil
	}
	c.forceThen(c.cfg.Protocol == TwoPhase, func() {
		for i, ch := range ct.parts {
			req := txnMsg{Txn: txn, Participants: ct.parts}
			if bodies != nil {
				req.Body = bodies[i]
			}
			if !c.send(ch, KindCommitReq, req) {
				c.abort(txn, ct, CauseMessage)
				return
			}
		}
		// Timeout waiting for votes: abort (w1 timeout transition).
		ct.timer = c.net.After(c.id, c.cfg.PhaseTimeout, func() {
			if ct.state == StateWait {
				c.abort(txn, ct, CauseTimeout)
			}
		})
	})
	return nil
}

// HandleMessage consumes coordinator-side protocol traffic.
//
//fsm:handler tpc coordinator
func (c *Coordinator) HandleMessage(m rt.Message) bool {
	switch m.Kind {
	case KindVoteYes:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return c.badPayload(m)
		}
		c.onVote(p.Txn, m.From, true, p.Body)
		return true
	case KindVoteNo:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return c.badPayload(m)
		}
		c.onVote(p.Txn, m.From, false, nil)
		return true
	case KindAck:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return c.badPayload(m)
		}
		c.onAck(p.Txn, m.From)
		return true
	default:
		return false
	}
}

func (c *Coordinator) onVote(txn string, from rt.NodeID, yes bool, body []byte) {
	ct, ok := c.txns[txn]
	if !ok || ct.state != StateWait {
		return
	}
	if yes && c.OnVoteYes != nil {
		yes = c.OnVoteYes(txn, from, body)
	}
	if !yes {
		c.abort(txn, ct, CauseMessage)
		return
	}
	ct.votes[from] = true
	if len(ct.votes) < len(ct.parts) {
		return
	}
	// All agreed.
	if ct.timer != nil {
		ct.timer.Cancel()
	}
	if c.cfg.Protocol == TwoPhase {
		// 2PC has no prepared phase: commit directly.
		c.commit(txn, ct, CauseMessage)
		return
	}
	// Second phase: prepare.
	c.emit(txn, ct.state, StatePrepared, CauseMessage)
	ct.state = StatePrepared
	c.persist(txn, StatePrepared)
	// The p1 record MUST be on disk before any prepare leaves: an
	// unsynced p crashes back to w, which recovers to abort — while a
	// cohort that ran termination over the prepares commits. The one
	// batched fsync here covers the whole fan-out (and, pipelined, every
	// concurrent transaction's sync point in the same window).
	c.forceThen(true, func() {
		for _, ch := range ct.parts {
			c.send(ch, KindPrepare, txnMsg{Txn: txn})
		}
		ct.timer = c.net.After(c.id, c.cfg.PhaseTimeout, func() {
			if ct.state == StatePrepared {
				// p1 timeout transition (a cohort failed before acking):
				// abort and notify everyone, per the paper's narrative.
				c.abort(txn, ct, CauseTimeout)
			}
		})
	})
}

func (c *Coordinator) onAck(txn string, from rt.NodeID) {
	ct, ok := c.txns[txn]
	if !ok || ct.state != StatePrepared {
		return
	}
	ct.acks[from] = true
	if len(ct.acks) < len(ct.parts) {
		return
	}
	if ct.timer != nil {
		ct.timer.Cancel()
	}
	c.commit(txn, ct, CauseMessage)
}

func (c *Coordinator) commit(txn string, ct *coordTxn, cause Cause) {
	from := ct.state
	if ct.state != StateCommitted {
		c.emit(txn, ct.state, StateCommitted, cause) //fsm:from w,p
	}
	ct.state = StateCommitted
	c.persist(txn, StateCommitted)
	c.persistDecision(txn, DecisionCommit)
	// Divergence rule: independent recovery re-derives commit from a
	// durable p, so committing from p needs no fsync before the decision
	// leaves, nor does re-announcing a c recovery read off the disk.
	// Committing from anywhere else (2PC's w) would recover to abort, so
	// the decision must hit the disk before anyone learns it.
	c.forceThen(!from.Committable(), func() {
		for _, ch := range ct.parts {
			c.send(ch, KindCommit, txnMsg{Txn: txn})
		}
		c.finish(txn, DecisionCommit)
		delete(c.txns, txn)
	})
}

func (c *Coordinator) abort(txn string, ct *coordTxn, cause Cause) {
	if ct.timer != nil {
		ct.timer.Cancel()
	}
	from := ct.state
	if ct.state != StateAborted {
		c.emit(txn, ct.state, StateAborted, cause) //fsm:from q,w,p
	}
	ct.state = StateAborted
	c.persist(txn, StateAborted)
	c.persistDecision(txn, DecisionAbort)
	// Mirror of commit's divergence rule: recovery from w (or q) already
	// aborts, so only an abort decided from p — where recovery would
	// commit instead — must be forced down before it is announced.
	c.forceThen(from == StatePrepared, func() {
		for _, ch := range ct.parts {
			c.send(ch, KindAbort, txnMsg{Txn: txn})
		}
		c.finish(txn, DecisionAbort)
		delete(c.txns, txn)
	})
}

// emit reports a transition to the trace hook. Call sites are the edges
// fsmcheck extracts for the coordinator machine.
//
//fsm:emit tpc coordinator
func (c *Coordinator) emit(txn string, from, to State, cause Cause) {
	if c.Trace != nil && from != to {
		c.Trace(txn, Transition{Role: RoleCoordinator, From: from, To: to, Cause: cause})
	}
}

// StateOf reports the coordinator's FSM state for txn: c1 or a1 once it
// is decided, when only the decision is kept.
func (c *Coordinator) StateOf(txn string) State {
	if ct, ok := c.txns[txn]; ok {
		return ct.state
	}
	switch c.Decision(txn) {
	case DecisionCommit:
		return StateCommitted
	case DecisionAbort:
		return StateAborted
	}
	return StateInitial
}

// RecoverAll applies the coordinator failure transitions of Fig. 3.2 from
// stable storage alone (independent recovery, assumption 8: what the
// coordinator remembered went with the crash): w1 aborts, p1 commits, and
// decided transactions re-announce their outcome — first, so a transport
// shedding the oldest frames of a backlog (rt/tcp's bounded peer queue)
// keeps the ones somebody waits on. It returns the decisions.
//
//dur:handler
func (c *Coordinator) RecoverAll() (map[string]Decision, error) {
	recs, err := c.persistedStates()
	if err != nil {
		return nil, err
	}
	decided := func(r persistedState) bool { return r.state == StateAborted || r.state == StateCommitted }
	sort.SliceStable(recs, func(i, j int) bool { return decided(recs[i]) && !decided(recs[j]) })
	c.txns, c.decisions = map[string]*coordTxn{}, map[string]Decision{}
	out := map[string]Decision{}
	for _, rec := range recs {
		ct := c.newTxn(c.cohorts) // participants are not logged: re-announce to everyone
		ct.state = rec.state
		c.txns[rec.txn] = ct
		switch rec.state {
		case StateWait, StateAborted: // w1's failure transition; a1 re-announces
			c.abort(rec.txn, ct, CauseFailure)
			out[rec.txn] = DecisionAbort
		case StatePrepared, StateCommitted: // p1's failure transition; c1 re-announces
			c.commit(rec.txn, ct, CauseFailure)
			out[rec.txn] = DecisionCommit
		}
	}
	return out, nil
}
