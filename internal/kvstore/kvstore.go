// Package kvstore is the per-site database each transaction cohort
// manages: a string key-value store guarded by strict two-phase locking
// and undo/redo write-ahead logging, with crash recovery rebuilding the
// store from stable storage. It is the "data" layer under the distributed
// transaction execution of the paper's Fig. 3.1.
//
//rt:engine
package kvstore

import (
	"errors"
	"fmt"

	"speccat/internal/locking"
	"speccat/internal/recovery"
	"speccat/internal/stable"
	"speccat/internal/wal"
)

// Sentinel errors.
var (
	// ErrConflict is returned when the lock manager refuses a conflicting
	// lock request (no-wait: the caller aborts rather than waits). A
	// refusal is the only way a lock is not granted: Acquire's error is
	// always nil, which is why the operations below drop it.
	ErrConflict = errors.New("kvstore: lock conflict")
	// ErrNoTxn is returned for operations outside a transaction.
	ErrNoTxn = errors.New("kvstore: unknown transaction")
)

// Store is one shard of a site's transactional KV store: the unit Shards
// partitions a site into, owning every key when owns is nil.
type Store struct {
	// data is the volatile database the WAL guards: every post-open
	// mutation must flow through the write-ahead log (//dur:volatile).
	data  map[string]string //dur:volatile
	locks *locking.Manager
	log   *wal.Log
	st    *stable.Store
	open  map[string]bool
	// owns restricts the store to its partition of a shared stable store:
	// it was opened with only its owned keys and undo skips other shards'
	// updates in the shared log. nil means the store owns every key.
	owns func(key string) bool
}

// Open creates (or reopens after crash) a store on stable storage,
// recovering committed state from the log and checkpoints. It owns every
// key: the whole-keyspace reference a one-shard Shards is tested against.
func Open(st *stable.Store) (*Store, error) {
	state, _, err := recovery.Recover(st)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open: %w", err)
	}
	return newStore(st, state, nil), nil
}

// newStore wraps already-recovered data in a store with a fresh lock
// manager and WAL session.
func newStore(st *stable.Store, data map[string]string, owns func(key string) bool) *Store {
	return &Store{
		data:  data,
		locks: locking.NewManager(),
		log:   wal.New(st),
		st:    st,
		open:  map[string]bool{},
		owns:  owns,
	}
}

// Begin starts a local transaction branch.
func (s *Store) Begin(txn string) error {
	if s.open[txn] {
		return fmt.Errorf("kvstore: %w: %s already open", wal.ErrTxnState, txn)
	}
	if err := s.log.Begin(txn); err != nil {
		return err
	}
	s.open[txn] = true
	return nil
}

// Get reads key under a read lock. Lock conflicts surface as ErrConflict.
//
//comm:op read
func (s *Store) Get(txn, key string) (string, error) {
	if !s.open[txn] {
		return "", fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if granted, _ := s.locks.Acquire(txn, key, locking.Read, nil); !granted {
		return "", fmt.Errorf("%w: read %s for %s", ErrConflict, key, txn)
	}
	return s.data[key], nil
}

// Put writes key under a write lock with write-ahead logging.
//
//comm:op write
func (s *Store) Put(txn, key, value string) error {
	if !s.open[txn] {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if granted, _ := s.locks.Acquire(txn, key, locking.Write, nil); !granted {
		return fmt.Errorf("%w: write %s for %s", ErrConflict, key, txn)
	}
	return s.log.LoggedUpdate(txn, s.data, key, value)
}

// Increment adds a signed decimal delta to key's canonical integer
// encoding under the increment lock: concurrent increments of other
// transactions proceed in parallel because increments commute
// (Safeincinc in locking/comm.sw).
//
//comm:op inc
func (s *Store) Increment(txn, key, delta string) error {
	if !s.open[txn] {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if granted, _ := s.locks.Acquire(txn, key, locking.IncMode, nil); !granted {
		return fmt.Errorf("%w: increment %s for %s", ErrConflict, key, txn)
	}
	return s.log.LoggedApply(txn, s.data, key, wal.OpInc, delta)
}

// Append adds an element to key's canonical multiset encoding under the
// append lock (Safeappendappend).
//
//comm:op append
func (s *Store) Append(txn, key, elem string) error {
	if !s.open[txn] {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if granted, _ := s.locks.Acquire(txn, key, locking.AppendMode, nil); !granted {
		return fmt.Errorf("%w: append %s for %s", ErrConflict, key, txn)
	}
	return s.log.LoggedApply(txn, s.data, key, wal.OpAppend, elem)
}

// SetInsert adds an element to key's canonical set encoding under the
// set-insert lock (Safesetinssetins; inserting an existing element is a
// logged no-op).
//
//comm:op setins
func (s *Store) SetInsert(txn, key, elem string) error {
	if !s.open[txn] {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if granted, _ := s.locks.Acquire(txn, key, locking.SetInsMode, nil); !granted {
		return fmt.Errorf("%w: setinsert %s for %s", ErrConflict, key, txn)
	}
	return s.log.LoggedApply(txn, s.data, key, wal.OpSetInsert, elem)
}

// Commit makes the branch durable and releases its locks.
func (s *Store) Commit(txn string) error {
	if !s.open[txn] {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if err := s.log.Commit(txn); err != nil {
		return err
	}
	delete(s.open, txn)
	s.locks.ReleaseAll(txn)
	return nil
}

// Abort rolls the branch back (undo) and releases its locks.
func (s *Store) Abort(txn string) error {
	if !s.open[txn] {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	if err := s.log.Abort(txn); err != nil {
		return err
	}
	if err := s.log.UndoOwnedInto(txn, s.data, s.owns); err != nil {
		return err
	}
	delete(s.open, txn)
	s.locks.ReleaseAll(txn)
	return nil
}

// Prepared reports whether the branch can promise to commit (it is open
// and all its work is logged — the phase-1 "agreed" vote).
func (s *Store) Prepared(txn string) bool { return s.open[txn] }

// Read returns the committed value outside any transaction (dirty reads of
// open transactions' writes are visible only through Get).
func (s *Store) Read(key string) string { return s.data[key] }

// Snapshot exports the current volatile state (for checkpointing).
func (s *Store) Snapshot() recovery.State {
	out := recovery.State{}
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// Stable exposes the underlying stable store.
func (s *Store) Stable() *stable.Store { return s.st }

// OpenTxns returns the number of open local branches.
func (s *Store) OpenTxns() int { return len(s.open) }
