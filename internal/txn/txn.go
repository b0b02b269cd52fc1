// Package txn implements the distributed transaction execution model of
// the paper's Fig. 3.1: a master process at the submission site sends
// startwork messages to cohort processes at the sites holding the data;
// cohorts execute reads and writes against their local kvstore (strict 2PL
// + undo/redo WAL) and answer workdone; when all work is done the master
// runs the commit protocol (3PC by default, 2PC for the baseline) so all
// sites reach a uniform decision, which each site then applies to its
// local store.
//
// The engines (Master, Site) speak the rt runtime boundary; the
// deterministic-simulator harness lives in cluster.go.
//
//rt:engine
package txn

import (
	"errors"
	"fmt"
	"sort"

	"speccat/internal/kvstore"
	"speccat/internal/rt"
	"speccat/internal/tpc"
	"speccat/internal/wal"
)

// Wire kinds. Work flows master->site; completion reports flow back.
// None carries a //dur:requires class: work assignment and completion
// reports announce volatile progress only — durability enters with the
// commit protocol (tpc kinds), whose sends these handlers delegate. The
// txn handlers still participate in the durcheck analysis as roots (via
// //fsm:handler), so any stable write or requiring send added here later
// falls under the dominance checks automatically.
const (
	kindWork     = "txn.startwork" //fsm:msg txn site
	kindWorkDone = "txn.workdone"  //fsm:msg txn master
	kindWorkFail = "txn.workfail"  //fsm:msg txn master
)

// Operation classes for Op.Class. They mirror the commutativity classes
// of locking/comm.sw; an empty Class means the legacy read/write pair
// selected by IsWrite.
const (
	ClassInc       = wal.OpInc
	ClassAppend    = wal.OpAppend
	ClassSetInsert = wal.OpSetInsert
)

// Op is one data operation of a transaction.
type Op struct {
	// Site is the node holding the datum.
	Site rt.NodeID
	// Key names the datum.
	Key string
	// Value is written when IsWrite, or is the operand of a classed
	// operation (the increment delta / appended element).
	Value string
	// IsWrite selects write vs read when Class is empty.
	IsWrite bool
	// Class selects a commutative operation (ClassInc, ClassAppend,
	// ClassSetInsert) executed under its derived lock mode; empty means
	// read/write per IsWrite.
	Class string `json:",omitempty"`
}

// Mutates reports whether the operation changes state (everything but a
// plain read).
func (o Op) Mutates() bool { return o.IsWrite || o.Class != "" }

// workMsg carries a site's slice of a transaction.
type workMsg struct {
	Txn string
	Ops []Op
}

// doneMsg acknowledges completed work, carrying read results back to the
// master keyed "site/key".
type doneMsg struct {
	Txn   string
	Reads map[string]string
}

// ErrUnknownSite is returned by Submit, before anything is sent, for an
// operation on a site the master does not manage.
var ErrUnknownSite = errors.New("txn: unknown site")

// Result is the final outcome of a distributed transaction.
type Result struct {
	Txn      string
	Decision tpc.Decision
	// Reads holds the values observed by read operations, keyed by
	// "site/key" (populated as workdone messages arrive).
	Reads map[string]string
}

// pending is the master's per-transaction state.
type pending struct {
	ops     map[rt.NodeID][]Op
	done    map[rt.NodeID]bool
	started bool
	result  *Result
	onDone  func(*Result)
}

// sites lists the sites the transaction has work for, in ID order.
func (p *pending) sites() []rt.NodeID {
	sites := make([]rt.NodeID, 0, len(p.ops))
	for site := range p.ops {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// Master coordinates distributed transactions from one site.
type Master struct {
	net     rt.Transport
	id      rt.NodeID
	sites   map[rt.NodeID]bool // the data sites this master manages
	coord   *tpc.Coordinator
	pending map[string]*pending
	// OnUnhandled, when non-nil, observes messages the master dropped —
	// unknown kinds, undecodable payloads, and work reports whose commit
	// protocol could not be started. They are counted either way (see
	// Unhandled).
	OnUnhandled func(m rt.Message)
	unhandled   int
}

// noteUnhandled accounts for a message the master could not act on.
func (m *Master) noteUnhandled(msg rt.Message) {
	m.unhandled++
	if m.OnUnhandled != nil {
		m.OnUnhandled(msg)
	}
}

// Unhandled reports how many messages the master dropped (unknown kind,
// undecodable payload, or a commit protocol that could not be started).
func (m *Master) Unhandled() int { return m.unhandled }

// Site hosts a cohort process plus the local store.
type Site struct {
	net rt.Transport
	id  rt.NodeID
	// Store is the site's transactional database in nshards hash partitions
	// (one is the undivided layout); only Recover opens it.
	Store    *kvstore.Shards
	nshards  int
	cohort   *tpc.Cohort
	masterID rt.NodeID
	// failed marks local branches that could not complete their work: the
	// site votes no for them, as it does for a transaction whose branch it
	// does not hold open (see NewShardedSiteOn).
	failed map[string]bool
	// OnOp, when non-nil, observes every data operation this site executes,
	// in execution order (= lock acquisition order under strict 2PL). Fault
	// explorers derive the serializability conflict graph from it.
	OnOp func(txn string, op Op)
	// OnApply, when non-nil, observes every commit-protocol decision applied
	// to the local store (the moment a local branch's effects become
	// committed or are rolled back).
	OnApply func(txn string, d tpc.Decision)
	// OnUnhandled, when non-nil, observes messages the site dropped —
	// unknown kinds and undecodable payloads. They are counted either way
	// (see Unhandled); before this hook existed both cases were a silent
	// bare return.
	OnUnhandled func(m rt.Message)
	unhandled   int
}

// noteUnhandled accounts for a message the site could not dispatch.
func (s *Site) noteUnhandled(msg rt.Message) {
	s.unhandled++
	if s.OnUnhandled != nil {
		s.OnUnhandled(msg)
	}
}

// Unhandled reports how many messages the site dropped (unknown kind or
// undecodable payload).
func (s *Site) Unhandled() int { return s.unhandled }

// Submit starts a distributed transaction; onDone fires with the outcome.
// A nil return means the transaction will be decided: a startwork the
// transport refuses fails that site's work, it does not fail Submit. On a
// crashed master Submit fails and the master's recovery decides it.
func (m *Master) Submit(txn string, ops []Op, onDone func(*Result)) error {
	if _, dup := m.pending[txn]; dup {
		return fmt.Errorf("txn: %s already submitted", txn)
	}
	for _, op := range ops {
		if !m.sites[op.Site] {
			return fmt.Errorf("txn: submit %s: %w: %d", txn, ErrUnknownSite, op.Site)
		}
	}
	p := &pending{
		ops:    map[rt.NodeID][]Op{},
		done:   map[rt.NodeID]bool{},
		result: &Result{Txn: txn, Reads: map[string]string{}},
		onDone: onDone,
	}
	for _, op := range ops {
		p.ops[op.Site] = append(p.ops[op.Site], op)
	}
	m.pending[txn] = p
	// Fig. 3.1: startwork to every involved cohort, in parallel. Sites are
	// contacted in ID order so the global send sequence — the coordinate
	// system fault schedules target — is identical across replays.
	for _, site := range p.sites() {
		if err := m.net.Send(m.id, site, kindWork, workMsg{Txn: txn, Ops: p.ops[site]}); err != nil {
			if !m.net.Up(m.id) { // crashed: RecoverCoordinator runs the protocol
				return fmt.Errorf("txn: submit %s: %w", txn, err)
			}
			// The site never opens its branch, so it votes no: running the
			// protocol now aborts the branches already open elsewhere
			// instead of leaving them locked behind a burnt name.
			return m.startCommit(txn, p)
		}
	}
	// A transaction touching no data commits trivially via the protocol.
	if len(p.ops) == 0 {
		return m.startCommit(txn, p)
	}
	// Work timeout: a site that never answers has failed its work.
	m.net.After(m.id, 8*m.net.Delta(), func() {
		m.handle(rt.Message{From: m.id, To: m.id, Kind: kindWorkFail, Payload: doneMsg{Txn: txn}})
	})
	return nil
}

// handle demultiplexes master-side traffic: commit protocol first, then
// the work protocol. It is the terminal handler for its node, so anything
// it does not dispatch is accounted through noteUnhandled rather than
// silently dropped.
//
//fsm:handler txn master
func (m *Master) handle(msg rt.Message) {
	if m.coord.HandleMessage(msg) {
		return
	}
	switch msg.Kind {
	case kindWorkDone:
		d, ok := msg.Payload.(doneMsg)
		if !ok {
			m.noteUnhandled(msg)
			return
		}
		p, ok := m.pending[d.Txn]
		if !ok || p.started {
			return
		}
		p.done[msg.From] = true
		for k, v := range d.Reads {
			p.result.Reads[k] = v
		}
		if len(p.done) == len(p.ops) && m.startCommit(d.Txn, p) != nil {
			m.noteUnhandled(msg)
		}
	case kindWorkFail:
		d, ok := msg.Payload.(doneMsg)
		if !ok {
			m.noteUnhandled(msg)
			return
		}
		p, ok := m.pending[d.Txn]
		if !ok || p.started {
			return
		}
		if m.startCommit(d.Txn, p) != nil {
			m.noteUnhandled(msg)
		}
	default:
		m.noteUnhandled(msg)
	}
}

// startCommit launches the atomic commitment protocol. A failed work phase
// still runs the protocol (the failing site votes no), keeping the
// decision path uniform. The protocol spans exactly the sites the
// transaction sent work to (Fig. 3.1's cohorts) — untouched sites never
// see a commit request, and a dataless transaction commits immediately.
func (m *Master) startCommit(txn string, p *pending) error {
	if p.started {
		return nil
	}
	p.started = true
	return m.coord.BeginWith(txn, p.sites())
}

// onDecide tells the submitter once: pending outlives a simulated restart.
func (m *Master) onDecide(txn string, d tpc.Decision) {
	p, ok := m.pending[txn]
	if !ok || p.result.Decision != tpc.DecisionNone {
		return
	}
	p.result.Decision = d
	if p.onDone != nil {
		p.onDone(p.result)
	}
}

// Decision returns the master's decision for txn.
func (m *Master) Decision(txn string) tpc.Decision { return m.coord.Decision(txn) }

// RecoverCoordinator replays the commit engine's failure transitions from
// the master site's stable store (Fig. 3.2 coordinator recovery):
// transactions logged in w1 abort, p1 commits, decided outcomes are
// re-announced. Submitted transactions whose commit protocol never began
// have no persisted coordinator state; the master restarts the protocol
// for them (treating its submission queue as durable — a real deployment
// would log submissions) so cohort branches don't hold locks forever.
func (m *Master) RecoverCoordinator() error {
	if _, err := m.coord.RecoverAll(); err != nil {
		return fmt.Errorf("txn: recover master %d: %w", m.id, err)
	}
	var unstarted []string
	for txn, p := range m.pending {
		if !p.started {
			unstarted = append(unstarted, txn)
		}
	}
	sort.Strings(unstarted) // deterministic send order across replays
	for _, txn := range unstarted {
		if err := m.startCommit(txn, m.pending[txn]); err != nil {
			return fmt.Errorf("txn: recover master %d: %w", m.id, err)
		}
	}
	return nil
}

// handle demultiplexes site-side traffic: commit protocol first, then the
// work protocol. Like the master's handler it is terminal for its node, so
// undispatched traffic is accounted rather than silently dropped.
//
//fsm:handler txn site
func (s *Site) handle(msg rt.Message) {
	if s.cohort.HandleMessage(msg) {
		return
	}
	if msg.Kind != kindWork {
		s.noteUnhandled(msg)
		return
	}
	w, ok := msg.Payload.(workMsg)
	if !ok {
		s.noteUnhandled(msg)
		return
	}
	s.startWork(w)
}

// startWork opens the local branch and executes the work message's
// operations in submission order.
func (s *Site) startWork(w workMsg) {
	if err := s.Store.Begin(w.Txn); err != nil {
		s.failWork(w.Txn)
		return
	}
	s.runOps(w.Txn, w.Ops, map[string]string{})
}

// failWork reports a local work failure (a refused lock, say) and rolls the
// branch back so the vote becomes no.
func (s *Site) failWork(txn string) {
	s.failed[txn] = true
	if s.Store.Prepared(txn) {
		_ = s.Store.Abort(txn)
	}
	_ = s.net.Send(s.id, s.masterID, kindWorkFail, doneMsg{Txn: txn})
}

// runOps executes ops against the local store, reporting workdone on
// completion. A lock conflict fails the work at once: no site waits for a
// lock, so the vote becomes no and the branch rolls back.
func (s *Site) runOps(txn string, ops []Op, reads map[string]string) {
	for _, op := range ops {
		if err := s.applyOp(txn, op, reads); err != nil {
			s.failWork(txn)
			return
		}
		if s.OnOp != nil {
			s.OnOp(txn, op)
		}
	}
	_ = s.net.Send(s.id, s.masterID, kindWorkDone, doneMsg{Txn: txn, Reads: reads})
}

// applyOp dispatches one operation to the store.
func (s *Site) applyOp(txn string, op Op, reads map[string]string) error {
	switch {
	case op.Class == ClassInc:
		return s.Store.Increment(txn, op.Key, op.Value)
	case op.Class == ClassAppend:
		return s.Store.Append(txn, op.Key, op.Value)
	case op.Class == ClassSetInsert:
		return s.Store.SetInsert(txn, op.Key, op.Value)
	case op.Class != "":
		return fmt.Errorf("txn: unknown op class %q", op.Class)
	case op.IsWrite:
		return s.Store.Put(txn, op.Key, op.Value)
	default:
		v, err := s.Store.Get(txn, op.Key)
		if err != nil {
			return err
		}
		reads[fmt.Sprintf("%d/%s", s.id, op.Key)] = v
		return nil
	}
}

// applyDecision applies the commit protocol's outcome to the local store.
// It is wired as the cohort's OnDecide callback (deploy.go), which the
// call-graph walk cannot see through — the //lock:handler opt-in makes it
// an analysis root so the commit path's ReleaseAll ordering is covered.
//
//lock:handler
func (s *Site) applyDecision(txn string, d tpc.Decision) {
	if s.Store == nil || !s.Store.Prepared(txn) {
		return // recovering (Recover settles the log itself), or no local branch
	}
	if d == tpc.DecisionCommit {
		_ = s.Store.Commit(txn)
	} else {
		_ = s.Store.Abort(txn)
	}
	if s.OnApply != nil {
		s.OnApply(txn, d)
	}
}

// Recover brings the site up from stable storage alone: an empty store, a
// killed process's journal (NewShardedSiteOn) and a store frozen by a
// simulated crash (simnet's RecoverFunc) are one case. The commit
// protocol's failure transitions settle every branch with a persisted FSM
// state (p2 commits, q2/w2 aborts, decided states are kept); branches whose
// yes-vote never reached stable storage cannot have been decided commit
// anywhere (the vote is written ahead of its send), so they resolve to
// abort; then the store opens, replaying the WAL over the resolved log.
func (s *Site) Recover() error {
	st, err := s.net.Store(s.id)
	if err != nil {
		return fmt.Errorf("txn: recover site %d: %w", s.id, err)
	}
	s.Store = nil // lost with the crash: in-doubt branches settle on the log
	decisions, err := s.cohort.RecoverAll()
	if err != nil {
		return fmt.Errorf("txn: recover site %d: %w", s.id, err)
	}
	active, err := wal.Active(st)
	if err != nil {
		return fmt.Errorf("txn: recover site %d: %w", s.id, err)
	}
	for _, txn := range active {
		d := decisions[txn]
		if d != tpc.DecisionCommit {
			d = tpc.DecisionAbort
		}
		if err := wal.Resolve(st, txn, d == tpc.DecisionCommit); err != nil {
			return fmt.Errorf("txn: recover site %d: %w", s.id, err)
		}
		if s.OnApply != nil {
			s.OnApply(txn, d)
		}
	}
	if s.Store, err = kvstore.OpenShards(st, s.nshards); err != nil {
		return fmt.Errorf("txn: recover site %d: %w", s.id, err)
	}
	s.failed = map[string]bool{}
	return nil
}

// ID returns the site's node ID.
func (s *Site) ID() rt.NodeID { return s.id }

// Decision reports this site's commit-protocol outcome for txn.
func (s *Site) Decision(txn string) tpc.Decision { return s.cohort.Decision(txn) }

// StateOf reports this site's commit-protocol FSM state for txn.
func (s *Site) StateOf(txn string) tpc.State { return s.cohort.StateOf(txn) }

// Blocked reports whether this (2PC) site is blocked on txn, and since
// when — the uncertainty window the paper's introduction describes.
func (s *Site) Blocked(txn string) (bool, rt.Time) { return s.cohort.Blocked(txn) }

// SetOnBlocked installs the blocked-cohort observer.
func (s *Site) SetOnBlocked(f func(txn string)) { s.cohort.OnBlocked = f }
