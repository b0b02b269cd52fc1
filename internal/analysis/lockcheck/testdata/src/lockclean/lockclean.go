// Package lockclean is a zero-finding lockcheck fixture: a miniature
// transaction engine exercising every clean shape the analysis must
// accept — a lock-managing operation releasing on every path, a
// defer-covered release, acquisitions in any key order (the manager is
// no-wait, so order cannot close a waits-for cycle), a SyncThen
// continuation that only publishes state, a decision record written
// before ReleaseAll, and a //lock:handler opt-in root.
package lockclean

import (
	"errors"

	"speccat/internal/locking"
	"speccat/internal/stable"
	"speccat/internal/wal"
)

var errConflict = errors.New("lockclean: conflict")

// engine is the toy transaction engine.
type engine struct {
	locks *locking.Manager
	wlog  *wal.Log
	disk  *stable.Store
}

// transfer acquires both accounts and releases everything on every path:
// the conflict exit releases before returning, the success path releases
// at the end — strict 2PL with no leak and no growth after shrinking.
//
//lock:handler
func (e *engine) transfer(txn string) error {
	if granted, _ := e.locks.Acquire(txn, "src", locking.Write, nil); !granted {
		e.locks.ReleaseAll(txn)
		return errConflict
	}
	if granted, _ := e.locks.Acquire(txn, "dst", locking.Write, nil); !granted {
		e.locks.ReleaseAll(txn)
		return errConflict
	}
	e.locks.ReleaseAll(txn)
	return nil
}

// audit covers every return path with one deferred ReleaseAll, taking
// the keys in whatever order they arrive.
//
//lock:handler
func (e *engine) audit(txn string, keys []string) error {
	defer e.locks.ReleaseAll(txn)
	for _, key := range keys {
		if granted, _ := e.locks.Acquire(txn, key, locking.Read, nil); !granted {
			return errConflict
		}
	}
	return nil
}

// commit writes the durable decision record first and releases only
// after it — strictness with the wal ordering intact — then publishes
// the outcome from a SyncThen continuation that touches no locks.
//
//lock:handler
func (e *engine) commit(txn string, done func(string)) error {
	if err := e.wlog.Commit(txn); err != nil {
		return err
	}
	e.locks.ReleaseAll(txn)
	e.disk.SyncThen(func() {
		done(txn)
	})
	return nil
}
