// Package wal implements the undo/redo logging protocol (building block 3,
// Section 3.5.1): every data modification writes an undo/redo record to
// stable storage *before* the volatile update (write-ahead rule), commit
// and abort are durable log records, and recovery replays the log — redoing
// committed transactions and undoing uncommitted ones — idempotently, so a
// second crash during recovery is harmless.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"

	"speccat/internal/stable"
)

// Sentinel errors.
var (
	// ErrTxnState is returned for operations in the wrong transaction state.
	ErrTxnState = errors.New("wal: invalid transaction state")
	// ErrCorrupt is wrapped when a log record fails to decode.
	ErrCorrupt = errors.New("wal: corrupt log record")
	// ErrEncode is wrapped when a log record fails to serialize before the
	// write-ahead append.
	ErrEncode = errors.New("wal: encode log record")
)

// RecordKind enumerates log record types.
type RecordKind int

// Record kinds.
const (
	RecBegin RecordKind = iota + 1
	RecUpdate
	RecCommit
	RecAbort
	RecEnd // written after undo/redo completion during recovery
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecBegin:
		return "begin"
	case RecUpdate:
		return "update"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecEnd:
		return "end"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Logical operation names for Record.Op. They match the commutativity
// classes of internal/locking/comm.sw: each names a class of updates
// that commute with themselves, which is exactly why their records must
// be replayed as operations (folded) rather than as absolute values —
// two interleaved increments have no single "after" image that survives
// the other one aborting.
const (
	OpInc       = "inc"
	OpAppend    = "append"
	OpSetInsert = "setins"
)

// Record is one log entry, in the [t, X, v] form of the paper: transaction
// t wrote value New (undoing to Old) into data item Key. A logical record
// (Op != "") additionally carries the operation and its argument, so redo
// can re-apply the operation and undo can apply its inverse instead of
// restoring absolute images that would clobber concurrent commuting
// updates.
type Record struct {
	Kind RecordKind `json:"k"`
	Txn  string     `json:"t"`
	Key  string     `json:"x,omitempty"`
	Old  string     `json:"o,omitempty"`
	New  string     `json:"n,omitempty"`
	Op   string     `json:"p,omitempty"`
	Arg  string     `json:"a,omitempty"`
}

// Log is an undo/redo write-ahead log over one site's stable store. The
// volatile database it guards is any map[string]string maintained by the
// caller; Log enforces the write-ahead discipline via LoggedUpdate.
type Log struct {
	store *stable.Store
	// active tracks transactions that have begun but not ended.
	active map[string]bool
}

// New opens (or reopens) the log on a stable store.
func New(store *stable.Store) *Log {
	return &Log{store: store, active: map[string]bool{}}
}

// Begin writes a begin record.
func (l *Log) Begin(txn string) error {
	if l.active[txn] {
		return fmt.Errorf("%w: %s already active", ErrTxnState, txn)
	}
	l.active[txn] = true
	return l.append(Record{Kind: RecBegin, Txn: txn})
}

// LoggedUpdate applies an update with write-ahead logging: the undo/redo
// record hits stable storage strictly before db is modified. The
// //dur:applies annotation tells durcheck that assignments into db are
// the volatile applies the log write must dominate.
//
//dur:applies db
func (l *Log) LoggedUpdate(txn string, db map[string]string, key, value string) error {
	if !l.active[txn] {
		return fmt.Errorf("%w: %s not active", ErrTxnState, txn)
	}
	old := db[key]
	if err := l.append(Record{Kind: RecUpdate, Txn: txn, Key: key, Old: old, New: value}); err != nil {
		return err
	}
	db[key] = value
	return nil
}

// LoggedApply applies a logical (commutative) operation with write-ahead
// logging: the record — operation, argument, and the before/after images
// — hits stable storage strictly before db is modified. The images are
// informational; recovery folds the operation itself (see Apply), which
// is what keeps concurrent commuting updates correct when one of them
// aborts.
//
//dur:applies db
func (l *Log) LoggedApply(txn string, db map[string]string, key, op, arg string) error {
	if !l.active[txn] {
		return fmt.Errorf("%w: %s not active", ErrTxnState, txn)
	}
	old := db[key]
	next := Apply(op, old, arg)
	if err := l.append(Record{Kind: RecUpdate, Txn: txn, Key: key, Old: old, New: next, Op: op, Arg: arg}); err != nil {
		return err
	}
	db[key] = next
	return nil
}

// Commit writes the commit record; after it returns, the transaction's
// effects are durable (redo-able).
func (l *Log) Commit(txn string) error {
	if !l.active[txn] {
		return fmt.Errorf("%w: %s not active", ErrTxnState, txn)
	}
	delete(l.active, txn)
	return l.append(Record{Kind: RecCommit, Txn: txn})
}

// Abort writes the abort record; recovery (or the caller via UndoOwnedInto)
// removes the transaction's effects.
func (l *Log) Abort(txn string) error {
	if !l.active[txn] {
		return fmt.Errorf("%w: %s not active", ErrTxnState, txn)
	}
	delete(l.active, txn)
	return l.append(Record{Kind: RecAbort, Txn: txn})
}

// UndoOwnedInto rolls a just-aborted transaction's updates back out of db
// (reverse order), without writing further log records. Physical updates
// restore their before-image; logical updates apply the inverse
// operation, so commuting updates of concurrent transactions that
// applied after the aborted ones are preserved rather than clobbered.
// Sharded stores share one stable log per site, so each shard's abort
// undoes only the keys owns reports true for; a nil owns undoes them all.
func (l *Log) UndoOwnedInto(txn string, db map[string]string, owns func(key string) bool) error {
	recs, err := Records(l.store)
	if err != nil {
		return err
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Kind == RecUpdate && r.Txn == txn && (owns == nil || owns(r.Key)) {
			db[r.Key] = Undo(r, db[r.Key])
		}
	}
	return nil
}

// append forces one record to the stable log.
//
//dur:writes log
func (l *Log) append(r Record) error {
	data, err := json.Marshal(r)
	if err != nil {
		// Record is a plain struct of strings, so this is unreachable today;
		// still surfaced as an error because a silent write-ahead failure
		// would break the recovery protocol's durability assumption.
		return fmt.Errorf("%w: %w", ErrEncode, err)
	}
	l.store.Append(data)
	return nil
}

// Resolve appends a commit or abort record for an in-doubt transaction
// directly on stable storage, without an open Log session. Recovery
// managers use it after a crash to settle branches whose fate the commit
// protocol decided (from the persisted FSM state) while the local Log
// object was lost with the volatile state.
func Resolve(store *stable.Store, txn string, commit bool) error {
	kind := RecAbort
	if commit {
		kind = RecCommit
	}
	return (&Log{store: store}).append(Record{Kind: kind, Txn: txn})
}

// Records decodes the full log from a stable store. A record recovery
// could not interpret — an unknown kind, which Recover would skip, or an
// unknown logical operation, which Apply would fold as a no-op and so
// drop a committed write — is corrupt, not ignorable.
func Records(store *stable.Store) ([]Record, error) {
	raw := store.ReadLog(0)
	out := make([]Record, 0, len(raw))
	for i, b := range raw {
		var r Record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%w: record %d: %w", ErrCorrupt, i, err)
		}
		if r.Kind < RecBegin || r.Kind > RecEnd {
			return nil, fmt.Errorf("%w: record %d: unknown %v", ErrCorrupt, i, r.Kind)
		}
		if r.Op != "" && r.Op != OpInc && r.Op != OpAppend && r.Op != OpSetInsert {
			return nil, fmt.Errorf("%w: record %d: unknown operation %q", ErrCorrupt, i, r.Op)
		}
		out = append(out, r)
	}
	return out, nil
}

// Outcome summarizes recovery for one transaction.
type Outcome struct {
	Txn       string
	Committed bool
}

// Redo folds into db, in log order, the updates of the transactions in
// committed; every other update is skipped, which equals undoing it from a
// state it never reached. Physical records install their after-image;
// logical records re-apply the operation — a logical record's absolute
// image bakes in updates of concurrent transactions whose fate may differ.
func Redo(recs []Record, committed map[string]bool, db map[string]string) {
	for _, r := range recs {
		if r.Kind != RecUpdate || !committed[r.Txn] {
			continue
		}
		if r.Op == "" {
			db[r.Key] = r.New
		} else {
			db[r.Key] = Apply(r.Op, db[r.Key], r.Arg)
		}
	}
}

// Recover reconstructs the database state from the log alone: committed
// transactions' updates are redone, updates of uncommitted or aborted
// transactions are undone (they never apply). It returns the recovered
// database and per-transaction outcomes, and is idempotent — recovering
// twice, or crashing mid-recovery and recovering again, yields the same
// state, the paper's "undo and redo must function even if there is a
// second crash during recovery".
func Recover(store *stable.Store) (map[string]string, []Outcome, error) {
	recs, err := Records(store)
	if err != nil {
		return nil, nil, err
	}
	committed := map[string]bool{}
	seen := map[string]bool{}
	var order []string
	for _, r := range recs {
		if !seen[r.Txn] && r.Txn != "" {
			seen[r.Txn] = true
			order = append(order, r.Txn)
		}
		if r.Kind == RecCommit {
			committed[r.Txn] = true
		}
	}
	db := map[string]string{}
	Redo(recs, committed, db)
	outcomes := make([]Outcome, 0, len(order))
	for _, txn := range order {
		outcomes = append(outcomes, Outcome{Txn: txn, Committed: committed[txn]})
	}
	return db, outcomes, nil
}

// Active returns the names of transactions that are begun but not yet
// committed or aborted, per the log on stable storage (used by recovery
// managers to decide who needs the termination protocol).
func Active(store *stable.Store) ([]string, error) {
	recs, err := Records(store)
	return ActiveIn(recs), err
}

// ActiveIn is Active over an already-decoded log.
func ActiveIn(recs []Record) []string {
	state := map[string]bool{}
	var order []string
	for _, r := range recs {
		switch r.Kind {
		case RecBegin:
			if !state[r.Txn] {
				state[r.Txn] = true
				order = append(order, r.Txn)
			}
		case RecCommit, RecAbort:
			state[r.Txn] = false
		}
	}
	var out []string
	for _, txn := range order {
		if state[txn] {
			out = append(out, txn)
		}
	}
	return out
}
