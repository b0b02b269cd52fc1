// Package recovery implements the roll-back recovery protocol of
// Section 3.5.1 (building block 6): when a failed site restarts, its
// recovery manager restores the last *permanent* checkpoint from stable
// storage, discards any unpromoted tentative checkpoint, and replays the
// write-ahead log — redoing committed transactions and undoing
// uncommitted ones — before the site rejoins the computation. Because
// checkpoints are coordinated (internal/checkpoint) recovery of one site
// never rolls back others: no domino effect.
//
// Durability annotations (//dur:*): none are needed here. Recovery sends
// no protocol messages and only reads stable storage, except for settling
// in-doubt branches via wal.Resolve — a durable write with no dependent
// send in this package. The durcheck layer therefore has nothing to
// check; the package is listed in its cross-package inventory for the
// record (DESIGN.md S30).
//
//rt:engine
package recovery

import (
	"encoding/json"
	"errors"
	"fmt"

	"speccat/internal/checkpoint"
	"speccat/internal/stable"
	"speccat/internal/wal"
)

// State is the volatile database shape this recovery manager restores:
// a string key-value map (what internal/kvstore and the examples use).
type State map[string]string

// EncodeState serializes a State for checkpointing. Marshal of a string
// map cannot fail today, but the error is surfaced anyway: a checkpoint
// capture that silently saved nothing would corrupt recovery.
func EncodeState(s State) ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("recovery: encode state: %w", err)
	}
	return data, nil
}

// DecodeState deserializes a checkpointed State.
func DecodeState(data []byte) (State, error) {
	var s State
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("recovery: corrupt state: %w", err)
	}
	if s == nil {
		s = State{}
	}
	return s, nil
}

// Report describes what a recovery did.
type Report struct {
	// FromCheckpoint is the permanent checkpoint sequence restored
	// (0 when none existed and recovery started from the empty state).
	FromCheckpoint int
	// Redone counts committed transactions replayed from the log.
	Redone int
	// Undone counts uncommitted/aborted transactions whose effects were
	// discarded.
	Undone int
	// PendingTxns are transactions that were in-doubt at crash time (begun,
	// neither committed nor aborted) — the commit protocol's termination
	// rules decide these.
	PendingTxns []string
}

// Recover rebuilds a site's volatile state from its stable store:
// permanent checkpoint + full log replay. It is idempotent: a second crash
// during recovery simply reruns it with the same result.
//
// The log is replayed in full. Checkpoints here snapshot state between
// transactions: physical redo is idempotent over the restored state, and
// logical (commutative) records are folded, which requires the log to
// postdate the checkpointed state — the coordinated checkpoint protocol
// runs on quiescent sites, so a record both reflected in the checkpoint
// and still in the log does not arise.
func Recover(st *stable.Store) (State, *Report, error) {
	rep := &Report{}

	state := State{}
	seq, data, err := checkpoint.Permanent(st)
	switch {
	case err == nil:
		if state, err = DecodeState(data); err != nil {
			return nil, nil, err
		}
		rep.FromCheckpoint = seq
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		// Cold start: empty state.
	default:
		return nil, nil, err
	}

	// A tentative checkpoint that never became permanent is discarded.
	checkpoint.DiscardTentative(st)

	// Replay the log: committed transactions are redone over the restored
	// state, everything else is (implicitly) undone.
	recs, err := wal.Records(st)
	if err != nil {
		return nil, nil, err
	}
	committed, undone := map[string]bool{}, map[string]bool{}
	for _, r := range recs {
		if r.Kind == wal.RecCommit {
			committed[r.Txn] = true
		}
	}
	for _, r := range recs {
		if r.Kind == wal.RecUpdate && !committed[r.Txn] {
			undone[r.Txn] = true
		}
	}
	wal.Redo(recs, committed, state)
	rep.Redone = len(committed)
	rep.Undone = len(undone)
	rep.PendingTxns = wal.ActiveIn(recs)
	return state, rep, nil
}
