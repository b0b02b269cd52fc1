package tpc

import (
	"sort"

	"speccat/internal/rt"
)

// cohortTxn is the cohort's per-transaction state.
type cohortTxn struct {
	state State
	timer rt.Timer
	// blockedSince is set when a 2PC cohort becomes uncertain with a dead
	// coordinator — the blocking window the paper's intro describes.
	blockedSince rt.Time
	blocked      bool
	// termination-protocol bookkeeping (when this cohort is the backup).
	gathering  bool
	stateResps map[rt.NodeID]State
	// peers is this transaction's participant set (self included), learned
	// from the commit request — the only way into w2. Termination runs over
	// exactly this set, so a transaction never waits on sites it did not touch.
	peers []rt.NodeID
}

// Cohort is the paper's participant process. Vote decides phase-1 votes;
// by default every transaction is voteable (yes).
type Cohort struct {
	endpoint
	coord rt.NodeID
	txns  map[string]*cohortTxn
	// Vote returns the phase-1 vote for a transaction (nil: always yes).
	Vote func(txn string) bool
	// OnBlocked fires when a 2PC cohort becomes blocked (uncertain, dead
	// coordinator). Used by experiment E8.
	OnBlocked func(txn string)
}

// NewCohort creates a cohort on site id for the given coordinator. It
// learns each transaction's peers from that transaction's commit request.
func NewCohort(net rt.Transport, id, coord rt.NodeID, cfg Config) *Cohort {
	return &Cohort{endpoint: newEndpoint(net, id, cfg), coord: coord, txns: map[string]*cohortTxn{}}
}

func (h *Cohort) txn(name string) *cohortTxn {
	t, ok := h.txns[name]
	if !ok {
		t = &cohortTxn{state: StateInitial, stateResps: map[rt.NodeID]State{}}
		h.txns[name] = t
	}
	return t
}

// HandleMessage consumes cohort-side protocol traffic.
//
//fsm:handler tpc cohort
func (h *Cohort) HandleMessage(m rt.Message) bool {
	switch m.Kind {
	case KindCommitReq:
		p, ok := m.Payload.(txnMsg)
		if !ok || len(p.Participants) == 0 { // a request names at least its receiver
			return h.badPayload(m)
		}
		h.onCommitReq(p.Txn, p.Participants)
		return true
	case KindPrepare:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return h.badPayload(m)
		}
		h.onPrepare(p.Txn, m.From)
		return true
	case KindCommit:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return h.badPayload(m)
		}
		h.decide(p.Txn, DecisionCommit, CauseMessage)
		return true
	case KindAbort:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return h.badPayload(m)
		}
		h.decide(p.Txn, DecisionAbort, CauseMessage)
		return true
	case KindStateReq:
		p, ok := m.Payload.(txnMsg)
		if !ok {
			return h.badPayload(m)
		}
		t := h.txn(p.Txn)
		// A decided cohort answers a state request with the decision
		// itself, so a requester that missed the original dissemination
		// (message loss) still converges. The decided guards below are why
		// the durability checker stands down: a cohort only ever enters
		// StateCommitted/StateAborted through decide(), which persists the
		// outcome first.
		switch t.state {
		case StateCommitted:
			h.send(m.From, KindCommit, txnMsg{Txn: p.Txn}) //dur:ignore StateCommitted is only entered via decide(), which persisted the decision
		case StateAborted:
			h.send(m.From, KindAbort, txnMsg{Txn: p.Txn}) //dur:ignore StateAborted is only entered via decide(), which persisted the decision
		default:
			h.send(m.From, KindStateResp, stateResp{Txn: p.Txn, State: t.state})
		}
		return true
	case KindStateResp:
		p, ok := m.Payload.(stateResp)
		if !ok {
			return h.badPayload(m)
		}
		h.onStateResp(p.Txn, m.From, p.State)
		return true
	default:
		return false
	}
}

// onCommitReq is the q2 transition: vote and move to w2 (yes) or a2 (no).
// The request names the participant set the transaction's termination
// protocol runs over.
func (h *Cohort) onCommitReq(txn string, participants []rt.NodeID) {
	t := h.txn(txn)
	if t.state != StateInitial {
		return
	}
	t.peers = append([]rt.NodeID{}, participants...)
	yes := h.Vote == nil || h.Vote(txn)
	if !yes {
		h.send(h.coord, KindVoteNo, txnMsg{Txn: txn})
		h.decide(txn, DecisionAbort, CauseMessage)
		return
	}
	h.emit(txn, t.state, StateWait, CauseMessage)
	t.state = StateWait
	h.persist(txn, StateWait)
	// The w2 record — and with it every WAL update of the local branch —
	// MUST be on disk before the yes-vote leaves. A voter that crashes
	// with an unsynced w recovers to q knowing nothing: it answers the
	// termination protocol with q instead of the recovered-abort a durable
	// w produces, and a peer recovering independently from its own synced
	// p commits — against a branch this site no longer has. One batched
	// fsync here covers the vote, the branch's WAL records, and every
	// concurrent committer in the window; the vote (and the phase timer it
	// starts) waits on the batch, the event loop does not.
	h.syncThen(func() {
		h.send(h.coord, KindVoteYes, txnMsg{Txn: txn})
		// Timeout waiting for prepare: coordinator failed in w1.
		t.timer = h.net.After(h.id, h.cfg.PhaseTimeout, func() {
			if t.state == StateWait {
				h.onCoordinatorSilent(txn, t)
			}
		})
	})
}

// onPrepare is the w2 transition: acknowledge and move to p2.
func (h *Cohort) onPrepare(txn string, from rt.NodeID) {
	t := h.txn(txn)
	if t.state != StateWait {
		return
	}
	if t.timer != nil {
		t.timer.Cancel()
	}
	h.emit(txn, t.state, StatePrepared, CauseMessage)
	t.state = StatePrepared
	h.persist(txn, StatePrepared)
	// The p2 record must be durable before the ack: an acked-but-unsynced
	// p crashes back to w, which recovers to abort — while the
	// coordinator, holding every ack, commits.
	h.syncThen(func() {
		h.send(from, KindAck, txnMsg{Txn: txn})
		// Timeout waiting for commit: coordinator failed in p1.
		t.timer = h.net.After(h.id, h.cfg.PhaseTimeout, func() {
			if t.state == StatePrepared {
				h.onCoordinatorSilent(txn, t)
			}
		})
	})
}

// onCoordinatorSilent handles phase timeouts: 2PC blocking, or the 3PC
// termination protocol in place of Fig. 3.2's bare timeout arrows.
func (h *Cohort) onCoordinatorSilent(txn string, t *cohortTxn) {
	switch {
	case h.cfg.Protocol == TwoPhase:
		if t.state == StateWait {
			// 2PC uncertainty window: the cohort voted yes and cannot
			// decide unilaterally — it blocks holding its locks.
			if !t.blocked {
				t.blocked = true
				t.blockedSince = h.net.Now()
				if h.OnBlocked != nil {
					h.OnBlocked(txn)
				}
			}
			// Keep waiting for the coordinator to come back.
			t.timer = h.net.After(h.id, h.cfg.PhaseTimeout, func() {
				if t.state == StateWait {
					h.onCoordinatorSilent(txn, t)
				}
			})
		}
	default:
		h.startTermination(txn, t)
	}
}

// startTermination runs the termination protocol: the backup coordinator
// (see backup) gathers the participants' local states, applies the
// non-blocking rules, and disseminates the decision.
func (h *Cohort) startTermination(txn string, t *cohortTxn) {
	backup := h.backup(t)
	if backup != h.id {
		// Ask the backup directly (it replies with its state, or with the
		// decision if it already has one), then retry if still undecided —
		// this makes termination converge under message loss too.
		h.send(backup, KindStateReq, txnMsg{Txn: txn})
		t.timer = h.net.After(h.id, 2*h.cfg.PhaseTimeout, func() {
			if t.state == StateWait || t.state == StatePrepared {
				h.startTermination(txn, t)
			}
		})
		return
	}
	if t.gathering {
		return
	}
	t.gathering = true
	t.stateResps = map[rt.NodeID]State{h.id: t.state}
	for _, p := range t.peers {
		if p == h.id {
			continue
		}
		h.send(p, KindStateReq, txnMsg{Txn: txn})
	}
	h.net.After(h.id, 2*h.net.Delta()+2, func() { h.terminationDecide(txn, t) })
}

// backup returns the lowest participant Up reports — the voting protocol
// in miniature: every cohort computes the same backup. Under the simulator
// Up is a perfect failure detector; tcp.Net.Up is cluster membership, true
// for every configured peer, so a served cohort asks a dead lowest
// participant again every 2·PhaseTimeout until that peer restarts.
func (h *Cohort) backup(t *cohortTxn) rt.NodeID {
	ids := append([]rt.NodeID{}, t.peers...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if h.net.Up(id) {
			return id
		}
	}
	return h.id
}

func (h *Cohort) onStateResp(txn string, from rt.NodeID, s State) {
	t := h.txn(txn)
	if t.gathering {
		t.stateResps[from] = s
	}
}

// terminationDecide applies the non-blocking theorem rules to the gathered
// states: commit when any operational site has committed or is prepared
// (its concurrency set contains commit and no operational site aborted);
// abort otherwise.
func (h *Cohort) terminationDecide(txn string, t *cohortTxn) {
	t.gathering = false
	if t.state == StateCommitted || t.state == StateAborted {
		return
	}
	anyCommittable := false
	anyAborted := false
	for _, s := range t.stateResps {
		if s.Committable() {
			anyCommittable = true
		}
		if s == StateAborted {
			anyAborted = true
		}
	}
	d := DecisionAbort
	if anyCommittable && !anyAborted {
		d = DecisionCommit
	}
	kind := KindAbort
	if d == DecisionCommit {
		kind = KindCommit
	}
	// Write-ahead rule: persist the decision locally (decide) BEFORE any
	// peer can learn it. The original ordering disseminated first — the
	// violation durcheck was built to catch, kept as the unsafe termination
	// mutant of internal/mutant.
	h.decide(txn, d, CauseTerminate)
	for _, p := range t.peers {
		if p != h.id {
			h.send(p, kind, txnMsg{Txn: txn})
		}
	}
}

// decide finalizes the local outcome: it persists the decided state and
// the decision before any observer (OnDecide, subsequent sends) can act
// on them.
//
//dur:writes state decision
func (h *Cohort) decide(txn string, d Decision, cause Cause) {
	t := h.txn(txn)
	if t.state == StateCommitted || t.state == StateAborted {
		return
	}
	if t.timer != nil {
		t.timer.Cancel()
	}
	from := t.state
	if d == DecisionCommit {
		t.state = StateCommitted
	} else {
		t.state = StateAborted
	}
	// The q->c edge below is outside the abstract model's relation: under
	// message loss a cohort that never saw the commit request can still
	// receive the disseminated commit, which the model's reliable channels
	// exclude. fsmcheck requires that justification to stay checked in.
	//fsm:model-extra tpc cohort q->c decision dissemination can reach a cohort that never received the commit request when messages are dropped; the mc model assumes reliable channels
	h.emit(txn, from, t.state, cause) //fsm:from q,w,p //fsm:to a,c
	h.persist(txn, t.state)
	h.persistDecision(txn, d)
	h.finish(txn, d)
	// Divergence rule for the batched fsync: recovery re-derives commit
	// from a durable p and abort from w/q, so only an outcome that
	// CONTRADICTS what recovery would conclude must be forced down —
	// commit decided at w, or abort decided at p (a backup's termination
	// can abort a prepared cohort when a peer aborted). A commit met in q
	// contradicts nothing: w is forced ahead of the yes-vote, so this site
	// never voted and took no part (a recovering coordinator re-announces
	// to every cohort). The sync sits after OnDecide so the one batch also
	// covers the WAL commit/abort record the decision application just
	// appended, and before decide's callers disseminate the outcome.
	if (d == DecisionCommit && from == StateWait) || (d == DecisionAbort && from == StatePrepared) {
		h.sync()
	}
}

// emit reports a transition to the trace hook. Call sites are the edges
// fsmcheck extracts for the cohort machine.
//
//fsm:emit tpc cohort
func (h *Cohort) emit(txn string, from, to State, cause Cause) {
	if h.Trace != nil && from != to {
		h.Trace(txn, Transition{Role: RoleCohort, From: from, To: to, Cause: cause})
	}
}

// StateOf reports this cohort's FSM state for txn.
func (h *Cohort) StateOf(txn string) State { return h.txn(txn).state }

// Blocked reports whether this (2PC) cohort is currently blocked on txn,
// and since when.
func (h *Cohort) Blocked(txn string) (bool, rt.Time) {
	t := h.txn(txn)
	return t.blocked && t.state == StateWait, t.blockedSince
}

// RecoverAll applies the cohort failure transitions on restart from
// stable storage alone (independent recovery: what the site remembered
// went with the crash): q2/w2 abort, p2 commits, decided states are kept.
// It returns the decisions taken.
//
//dur:handler
func (h *Cohort) RecoverAll() (map[string]Decision, error) {
	recs, err := h.persistedStates()
	if err != nil {
		return nil, err
	}
	h.txns, h.decisions = map[string]*cohortTxn{}, map[string]Decision{}
	out := map[string]Decision{}
	for _, rec := range recs {
		d := DecisionAbort
		if rec.state.Committable() {
			d = DecisionCommit
		}
		h.txn(rec.txn).state = rec.state
		if rec.state == StateAborted || rec.state == StateCommitted {
			h.decisions[rec.txn] = d
		} else {
			// Failure transitions: abort from q2/w2, commit from p2
			// (consistent with the p2 timeout transition).
			h.decide(rec.txn, d, CauseFailure)
		}
		out[rec.txn] = d
	}
	return out, nil
}
