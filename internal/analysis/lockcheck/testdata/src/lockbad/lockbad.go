// Package lockbad seeds one mutation per lockcheck rule class, each
// carrying its expected finding:
//
//   - growAfterShrink: an Acquire after a Release of the same transaction
//     (lock-twophase)
//   - leaky: an early return holding an acquired lock (lock-leak)
//   - holdAcross: an Acquire inside a stable.SyncThen continuation
//     (lock-hold)
//   - releaseBeforeDecision: ReleaseAll ahead of the transaction's wal
//     decision record (lock-hold)
//   - plus the malformed, unknown, reasonless and unbound //lock:*
//     directives (lock-extract)
package lockbad

import (
	"errors"

	"speccat/internal/locking"
	"speccat/internal/stable"
	"speccat/internal/wal"
)

var errEarly = errors.New("lockbad: early")

// engine is the toy transaction engine.
type engine struct {
	locks *locking.Manager
	wlog  *wal.Log
	disk  *stable.Store
}

// growAfterShrink releases one key early and then acquires another for
// the same transaction — growing after shrinking.
//
//lock:handler
func (e *engine) growAfterShrink(txn string) {
	e.locks.Acquire(txn, "a", locking.Write, nil)
	e.locks.Release(txn, "a")
	e.locks.Acquire(txn, "b", locking.Write, nil) // want `lock-twophase: acquires "b" for txn after its locks were released`
	e.locks.ReleaseAll(txn)
}

// leaky returns early with the lock still held.
//
//lock:handler
func (e *engine) leaky(txn string, fail bool) error {
	e.locks.Acquire(txn, "k", locking.Write, nil)
	if fail {
		return errEarly // want `lock-leak: returns while txn may still hold "k"`
	}
	e.locks.ReleaseAll(txn)
	return nil
}

// holdAcross grows the lock set from inside a durability wait.
//
//lock:handler
func (e *engine) holdAcross(txn string) {
	e.disk.SyncThen(func() {
		e.locks.Acquire(txn, "late", locking.Write, nil) // want `lock-hold: acquires a lock inside a stable.SyncThen continuation`
	})
}

// releaseBeforeDecision lets the locks go before the decision record is
// durable.
//
//lock:handler
func (e *engine) releaseBeforeDecision(txn string) {
	e.locks.Acquire(txn, "k", locking.Write, nil)
	e.locks.ReleaseAll(txn) // want `lock-hold: releases txn's locks before its durable decision record`
	_ = e.wlog.Commit(txn)
}

//lock:handler extra argument // want `lock-extract: malformed .*handler: want no arguments, got 2`
func orphanArgs() {}

//lock:frobnicate retry // want `lock-extract: unknown directive .*frobnicate`
func orphanVerb() {}

// badSuppressions carries the reasonless and unbound directives.
//
//lock:handler
func badSuppressions(txn string) {
	//lock:ignore // want `lock-extract: .*ignore requires a reason`
	_ = txn
	//lock:handler // want `lock-extract: .*handler is not attached to a declaration`
	_ = txn
}
