// Package txn implements the distributed transaction execution model of
// the paper's Fig. 3.1 — a master process at the submission site hands
// each cohort process at a site holding data its share of the work, the
// cohorts execute reads and writes against their local kvstore (strict 2PL
// + undo/redo WAL) and report back, and the master then runs the commit
// protocol (3PC by default, 2PC for the baseline) so all sites reach a
// uniform decision, which each site applies to its local store.
//
// Fig. 3.1's startwork and workdone are not messages of their own: they
// ride on the commit protocol's first round. Submit begins the protocol at
// once, and each site's tpc.commitreq carries that site's operations; the
// site's vote runs them, so a yes-vote means "my work went fine and the
// branch is open", and the tpc.voteyes carries the site's reads back. A
// site whose work fails, or which cannot read its request, votes no. The
// commit protocol is tpc's verified machine as it stands: a cohort enters
// w only by forcing w and voting yes on a commit request.
//
// The engines (Master, Site) speak the rt runtime boundary; the
// deterministic-simulator harness lives in cluster.go.
//
//rt:engine
package txn

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"speccat/internal/kvstore"
	"speccat/internal/rt"
	"speccat/internal/tpc"
	"speccat/internal/wal"
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

// ErrUnknownSite is returned by Submit, before anything is sent, for an
// operation on a site the master does not manage.
var ErrUnknownSite = errors.New("txn: unknown site")

// Result is the final outcome of a distributed transaction.
type Result struct {
	Txn      string
	Decision tpc.Decision
	// Reads holds the values observed by read operations, keyed by
	// "site/key" (populated as yes-votes arrive).
	Reads map[string]string
}

// pending is the master's per-transaction state: what the submitter is
// told, and how.
type pending struct {
	result *Result
	onDone func(*Result)
}

// Master coordinates distributed transactions from one site.
type Master struct {
	net     rt.Transport
	id      rt.NodeID
	sites   map[rt.NodeID]bool // the data sites this master manages
	coord   *tpc.Coordinator
	pending map[string]*pending
	// decided replaces a transaction's pending entry once its submitter is
	// told: with a decided result it keeps the name taken and every path
	// that finds it a no-op, and nothing else.
	decided *pending
}

// Site hosts a cohort process plus the local store.
type Site struct {
	net rt.Transport
	id  rt.NodeID
	// Store is the site's transactional database in nshards hash partitions
	// (one is the undivided layout); only Recover opens it.
	Store   *kvstore.Shards
	nshards int
	cohort  *tpc.Cohort
	// OnOp, when non-nil, observes every data operation this site executes,
	// in execution order (= lock acquisition order under strict 2PL). Fault
	// explorers derive the serializability conflict graph from it.
	OnOp func(txn string, op Op)
	// OnApply, when non-nil, observes every commit-protocol decision applied
	// to the local store (the moment a local branch's effects become
	// committed or are rolled back).
	OnApply func(txn string, d tpc.Decision)
}

// Submit starts a distributed transaction; onDone fires with the outcome.
// It begins the commit protocol at once over the sites ops touch (in ID
// order, so the global send sequence — the coordinate system fault
// schedules target — is identical across replays), each commit request
// carrying its site's operations. A nil return means the transaction will
// be decided: a commit request the transport refuses, a crashed master's
// included, is a no vote, and the transaction aborts. It is not message
// dispatch, so it opts into the analyses explicitly.
//
//dur:handler
func (m *Master) Submit(txn string, ops []Op, onDone func(*Result)) error {
	if _, dup := m.pending[txn]; dup {
		return fmt.Errorf("txn: %s already submitted", txn)
	}
	work := map[rt.NodeID][]byte{}
	for _, op := range ops {
		if !m.sites[op.Site] {
			return fmt.Errorf("txn: submit %s: %w: %d", txn, ErrUnknownSite, op.Site)
		}
		work[op.Site] = appendOp(work[op.Site], op)
	}
	sites := make([]rt.NodeID, 0, len(work))
	for site := range work {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	bodies := make([][]byte, len(sites))
	for i, site := range sites {
		bodies[i] = work[site]
	}
	m.pending[txn] = &pending{result: &Result{Txn: txn, Reads: map[string]string{}}, onDone: onDone}
	if err := m.coord.BeginWith(txn, sites, bodies); err != nil {
		delete(m.pending, txn)
		return fmt.Errorf("txn: submit %s: %w", txn, err)
	}
	return nil
}

// onVoteYes gathers the reads a site's yes-vote carries into the result,
// keyed "site/key"; a reply that does not decode is a no vote.
func (m *Master) onVoteYes(txn string, from rt.NodeID, body []byte) bool {
	p, ok := m.pending[txn]
	if !ok || p.result.Decision != tpc.DecisionNone {
		return true // no submitter waits for these reads
	}
	reads, err := decodeReads(body)
	if err != nil {
		return false
	}
	prefix := strconv.Itoa(int(from)) + "/"
	for _, r := range reads {
		p.result.Reads[prefix+r.key] = r.value
	}
	return true
}

// onDecide tells the submitter once: pending outlives a simulated restart.
// The entry is then the shared decided marker, so a decided transaction
// keeps none of its ops, reads or callback.
func (m *Master) onDecide(txn string, d tpc.Decision) {
	p, ok := m.pending[txn]
	if !ok || p.result.Decision != tpc.DecisionNone {
		return
	}
	m.pending[txn] = m.decided
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
// re-announced. Every submitted transaction began its commit protocol in
// Submit, so a branch a cohort opened is the protocol's to settle: the
// cohort voted yes and runs the termination protocol (3PC) or waits for
// this recovery's announcement (2PC, whose w1 is forced before the
// requests leave).
func (m *Master) RecoverCoordinator() error {
	if _, err := m.coord.RecoverAll(); err != nil {
		return fmt.Errorf("txn: recover master %d: %w", m.id, err)
	}
	return nil
}

// vote is the site's answer to a commit request (the cohort's Vote): it
// opens the local branch and executes the operations the request carries,
// in submission order. A lock conflict fails the work at once — no site
// waits for a lock — as does a body that does not decode; the vote is then
// no, and the cohort's abort (applyDecision) rolls the branch back. A yes
// carries the reads back. Like applyDecision it is wired as a callback the
// call-graph walk cannot see through, so it opts into the analyses.
//
//dur:handler
//lock:handler
func (s *Site) vote(txn string, body []byte) (bool, []byte) {
	ops, err := DecodeOps(body, s.id)
	if err != nil || s.Store.Begin(txn) != nil {
		return false, nil
	}
	var reads []byte
	for _, op := range ops {
		v, err := s.applyOp(txn, op)
		if err != nil {
			return false, nil
		}
		if s.OnOp != nil {
			s.OnOp(txn, op)
		}
		if !op.Mutates() {
			reads = appendRead(reads, op.Key, v)
		}
	}
	return true, reads
}

// applyOp dispatches one operation to the store, returning what a read
// observed.
func (s *Site) applyOp(txn string, op Op) (string, error) {
	switch {
	case op.Class == ClassInc:
		return "", s.Store.Increment(txn, op.Key, op.Value)
	case op.Class == ClassAppend:
		return "", s.Store.Append(txn, op.Key, op.Value)
	case op.Class == ClassSetInsert:
		return "", s.Store.SetInsert(txn, op.Key, op.Value)
	case op.Class != "":
		return "", fmt.Errorf("txn: unknown op class %q", op.Class)
	case op.IsWrite:
		return "", s.Store.Put(txn, op.Key, op.Value)
	default:
		return s.Store.Get(txn, op.Key)
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
