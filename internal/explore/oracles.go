package explore

import (
	"fmt"
	"sort"

	"speccat/internal/locking"
	"speccat/internal/sim"
	"speccat/internal/stable"
	"speccat/internal/tpc"
	"speccat/internal/wal"
)

// Oracle names, in evaluation order.
const (
	OracleAtomicity       = "atomicity"
	OracleDurability      = "durability"
	OracleSerializability = "serializability"
	OracleProgress        = "progress"
)

// checkOracles evaluates every end-to-end correctness property against the
// finished run. Evaluation is read-only and iterates in deterministic
// order, so the violation list is part of the replayable trace.
func (r *runner) checkOracles() []Violation {
	var out []Violation
	out = append(out, r.checkAtomicity()...)
	out = append(out, r.checkDurability()...)
	out = append(out, r.checkSerializability()...)
	out = append(out, r.checkProgress()...)
	return out
}

// checkAtomicity: no transaction may have one node durably commit while
// another durably aborts. Durable (persisted) decisions are the ground
// truth — they are what each node acts on across any future crash, so a
// split here is unrepairable.
func (r *runner) checkAtomicity() []Violation {
	var out []Violation
	for _, name := range r.submitted {
		commit, abort := r.durableDecisions(name)
		if len(commit) > 0 && len(abort) > 0 {
			out = append(out, Violation{
				Oracle: OracleAtomicity,
				Txn:    name,
				Detail: fmt.Sprintf("nodes %v durably committed while nodes %v durably aborted", commit, abort),
			})
		}
	}
	return out
}

// checkDurability: each site's state, recovered from its WAL alone (as if
// the site crashed at the end of the run), must equal the writes of exactly
// the transactions whose commit the site applied, in application order,
// with each applied transaction's commutative operations folded over them
// (mirroring the WAL's logical redo). Lost committed writes and
// resurrected aborted writes both surface here. That comparison is keyed
// by what the site applied, so it cannot see effects that never arrived:
// an up site that durably decided commit for a transaction it was sent
// writes for, and never applied them, is convicted separately.
func (r *runner) checkDurability() []Violation {
	var out []Violation
	for _, id := range r.cluster.SiteIDs {
		st, err := r.net.Store(id)
		if err != nil {
			continue
		}
		recovered, _, err := wal.Recover(st)
		if err != nil {
			out = append(out, Violation{
				Oracle: OracleDurability,
				Site:   id,
				Detail: fmt.Sprintf("WAL recovery failed: %v", err),
			})
			continue
		}
		if err := foldRederivedCommits(st, recovered, r.applied[id]); err != nil {
			out = append(out, Violation{
				Oracle: OracleDurability,
				Site:   id,
				Detail: fmt.Sprintf("commit re-derivation failed: %v", err),
			})
			continue
		}
		for _, name := range r.submitted {
			if _, applied := r.appliedAt[id][name]; applied || !r.net.Up(id) || len(r.writes[name][id])+len(r.classed[name][id]) == 0 {
				continue
			}
			if d, err := tpc.DurableDecision(st, name); err == nil && d == tpc.DecisionCommit {
				out = append(out, Violation{
					Oracle: OracleDurability,
					Txn:    name,
					Site:   id,
					Detail: "site durably decided commit for a transaction it was sent writes for and never applied them",
				})
			}
		}
		expected := map[string]string{}
		for _, name := range r.applied[id] {
			w := r.writes[name][id]
			keys := make([]string, 0, len(w))
			for k := range w {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				expected[k] = w[k]
			}
			for _, c := range r.classed[name][id] {
				expected[c.key] = wal.Apply(c.op, expected[c.key], c.arg)
			}
		}
		keys := map[string]bool{}
		for k := range expected {
			keys[k] = true
		}
		for k := range recovered {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			if expected[k] != recovered[k] {
				out = append(out, Violation{
					Oracle: OracleDurability,
					Site:   id,
					Detail: fmt.Sprintf("key %s: recovered %q, committed history says %q", k, recovered[k], expected[k]),
				})
			}
		}
	}
	return out
}

// foldRederivedCommits redoes, into db, the update records of applied
// transactions whose WAL commit record is missing from stable storage.
// Group-committed journals make that gap real: the divergence rule
// deliberately leaves the happy-path commit record inside an unsynced
// batch window, because the synced p record alone already re-derives
// commit on restart (3PC independent recovery) — so "recovered from the
// WAL alone" must include the same re-derivation a real restart performs
// via tpc RecoverAll before comparing against the applied history. Only
// transactions the site actually applied are folded: a site that crashed
// in p *before* the decision reached it has not committed anything, and
// what its own restart would then do is the termination protocol's
// business, not this oracle's.
func foldRederivedCommits(st *stable.Store, db map[string]string, applied []string) error {
	if len(applied) == 0 {
		return nil
	}
	recs, err := wal.Records(st)
	if err != nil {
		return err
	}
	rederived := map[string]bool{}
	for _, txn := range applied {
		rederived[txn] = true
	}
	for _, rec := range recs {
		if rec.Kind == wal.RecCommit {
			delete(rederived, rec.Txn)
		}
	}
	wal.Redo(recs, rederived, db)
	return nil
}

// opMode maps an observed operation to the lock mode a correct site takes
// for it: absolute writes are exclusive, classed operations take their
// commutativity-derived mode, and everything else is a read.
func opMode(e opEvent) locking.Mode {
	switch {
	case e.write:
		return locking.Write
	case e.class == wal.OpInc:
		return locking.IncMode
	case e.class == wal.OpAppend:
		return locking.AppendMode
	case e.class == wal.OpSetInsert:
		return locking.SetInsMode
	default:
		return locking.Read
	}
}

// checkSerializability validates the lock discipline that guarantees
// conflict-serializability, in two parts over the committed transactions.
//
// First, no two committed transactions may hold incompatible-class access
// to one key simultaneously: an operation executes the moment its lock is
// granted, and strict 2PL holds that lock until the commit is applied, so
// a later conflicting operation landing before the earlier holder's apply
// time is a mutual-exclusion breach — the direct dynamic signature of the
// comm-underlock defect. Commuting operations (two increments of one key)
// deliberately may overlap: their effects are order-independent, which is
// exactly what the discharged Safe theorems license.
//
// Second, the conflict graph — an edge t1→t2 when t1 touched a key before
// t2 at some site under modes the matrix marks conflicting — must be
// acyclic. (With a single submission stream over FIFO links the overlap
// check is the sharper instrument; the cycle check keeps the classic
// definition honest.)
//
// Overlaps are only judged against holders whose commit-apply time was
// observed at that site; a branch applied during crash recovery has no
// observed release time and is skipped rather than guessed at.
func (r *runner) checkSerializability() []Violation {
	committed := map[string]bool{}
	for _, name := range r.submitted {
		if r.durableOutcome(name) == tpc.DecisionCommit {
			committed[name] = true
		}
	}
	edges := map[string]map[string]bool{}
	addEdge := func(from, to string) {
		if edges[from] == nil {
			edges[from] = map[string]bool{}
		}
		edges[from][to] = true
	}
	var out []Violation
	for _, id := range r.cluster.SiteIDs {
		type access struct {
			txn  string
			mode locking.Mode
			at   sim.Time
		}
		perKey := map[string][]access{}
		for _, op := range r.opLog[id] {
			if !committed[op.txn] {
				continue
			}
			mode := opMode(op)
			for _, prev := range perKey[op.key] {
				if prev.txn == op.txn || locking.Compatible(prev.mode, mode) {
					continue
				}
				addEdge(prev.txn, op.txn)
				if rel, ok := r.appliedAt[id][prev.txn]; ok && op.at < rel {
					out = append(out, Violation{
						Oracle: OracleSerializability,
						Txn:    op.txn,
						Site:   id,
						Detail: fmt.Sprintf("key %s: %s took %s-class access at t=%d while %s still held an incompatible %s-class lock (released t=%d)",
							op.key, op.txn, mode, op.at, prev.txn, prev.mode, rel),
					})
				}
			}
			perKey[op.key] = append(perKey[op.key], access{txn: op.txn, mode: mode, at: op.at})
		}
	}
	// Cycle detection by iterative DFS over sorted nodes/neighbors.
	nodes := make([]string, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var cycleAt string
	var visit func(n string) bool
	visit = func(n string) bool {
		color[n] = gray
		nbrs := make([]string, 0, len(edges[n]))
		for m := range edges[n] {
			nbrs = append(nbrs, m)
		}
		sort.Strings(nbrs)
		for _, m := range nbrs {
			switch color[m] {
			case gray:
				cycleAt = m
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && visit(n) {
			out = append(out, Violation{
				Oracle: OracleSerializability,
				Txn:    cycleAt,
				Detail: fmt.Sprintf("conflict graph over committed transactions has a cycle through %s", cycleAt),
			})
			break
		}
	}
	return out
}

// checkProgress: under the paper's design fault tolerance — at most one
// site failure, reliable bounded-delay network — every operational site
// must have decided every transaction it participated in by the horizon.
// An up site stuck in w or p is the blocked cohort 3PC exists to prevent
// (and exactly where 2PC blocks after a coordinator crash). Outside that
// fault envelope the property is not claimed, so the oracle stands down.
func (r *runner) checkProgress() []Violation {
	if r.spec.CrashCount() > 1 || r.spec.UnreliableNetwork() {
		return nil
	}
	var out []Violation
	// With no failures at all, the claim sharpens: every submitted
	// transaction must reach a durable decision somewhere by the horizon. A
	// transaction nobody decided never even entered the commit protocol —
	// the signature of work stalled forever, e.g. a cross-shard waits-for
	// cycle between sites that wait for locks. The per-site state
	// check below cannot catch that stall: a cohort that never saw a
	// commit request is in its initial state, not w or p.
	if r.spec.CrashCount() == 0 {
		for _, name := range r.submitted {
			if r.durableOutcome(name) == tpc.DecisionNone {
				out = append(out, Violation{
					Oracle: OracleProgress,
					Txn:    name,
					Detail: "no node reached a durable decision by the horizon (fault-free run)",
				})
			}
		}
	}
	for _, name := range r.submitted {
		for _, id := range r.cluster.SiteIDs {
			if !r.net.Up(id) {
				continue
			}
			site := r.cluster.Sites[id]
			st := site.StateOf(name)
			if st != tpc.StateWait && st != tpc.StatePrepared {
				continue
			}
			detail := fmt.Sprintf("up site still in %s at horizon (undecided)", st)
			if blocked, since := site.Blocked(name); blocked {
				detail = fmt.Sprintf("up site blocked in %s since t=%d", st, since)
			}
			out = append(out, Violation{Oracle: OracleProgress, Txn: name, Site: id, Detail: detail})
		}
	}
	return out
}
