package kvstore

import (
	"errors"
	"testing"
)

// TestConcurrentIncrementsShareLock pins the point of the derived
// modes: two open transactions increment one key at the same time —
// under Put they would conflict — and both deltas survive commit.
func TestConcurrentIncrementsShareLock(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Begin("t2"))
	mustOK(t, s.Increment("t1", "x", "10"))
	mustOK(t, s.Increment("t2", "x", "100"))
	mustOK(t, s.Commit("t1"))
	mustOK(t, s.Commit("t2"))
	if got := s.Read("x"); got != "110" {
		t.Fatalf("x = %q, want 110", got)
	}
}

// TestIncrementAbortPreservesConcurrentDelta pins logical undo through
// the store: aborting one of two concurrent increments leaves the
// other's delta intact, both in the live store and after crash recovery.
func TestIncrementAbortPreservesConcurrentDelta(t *testing.T) {
	s, st := open(t)
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Begin("t2"))
	mustOK(t, s.Increment("t1", "x", "10"))
	mustOK(t, s.Increment("t2", "x", "100"))
	mustOK(t, s.Abort("t1"))
	if got := s.Read("x"); got != "100" {
		t.Fatalf("x = %q after abort, want 100", got)
	}
	mustOK(t, s.Commit("t2"))
	r, err := Open(st)
	mustOK(t, err)
	if got := r.Read("x"); got != "100" {
		t.Fatalf("recovered x = %q, want 100", got)
	}
}

// TestAppendAndSetInsertShare pins the other two commuting classes at
// the store level, with their canonical encodings.
func TestAppendAndSetInsertShare(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Begin("t2"))
	mustOK(t, s.Append("t1", "lst", "b"))
	mustOK(t, s.Append("t2", "lst", "a"))
	mustOK(t, s.SetInsert("t1", "set", "b"))
	mustOK(t, s.SetInsert("t2", "set", "b"))
	mustOK(t, s.Commit("t1"))
	mustOK(t, s.Commit("t2"))
	if got := s.Read("lst"); got != "a,b" {
		t.Fatalf("lst = %q, want a,b", got)
	}
	if got := s.Read("set"); got != "b" {
		t.Fatalf("set = %q, want b", got)
	}
}

// TestIncrementConflictsWithWrite pins the off-diagonal of the matrix at
// the store level: an increment does not commute with an absolute write
// (either order), so each direction surfaces ErrConflict.
func TestIncrementConflictsWithWrite(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Begin("t2"))
	mustOK(t, s.Increment("t1", "x", "1"))
	if err := s.Put("t2", "x", "9"); !errors.Is(err, ErrConflict) {
		t.Fatalf("Put after concurrent Increment: err = %v, want ErrConflict", err)
	}
	if _, err := s.Get("t2", "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("Get after concurrent Increment: err = %v, want ErrConflict", err)
	}
	mustOK(t, s.Commit("t1"))
}

// TestSameTxnMixesClassesViaUpgrade pins Join's escalation: one
// transaction reading then incrementing a key upgrades its own lock
// rather than deadlocking with itself.
func TestSameTxnMixesClassesViaUpgrade(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t1"))
	if _, err := s.Get("t1", "x"); err != nil {
		t.Fatal(err)
	}
	mustOK(t, s.Increment("t1", "x", "5"))
	mustOK(t, s.Put("t1", "x", "9"))
	mustOK(t, s.Commit("t1"))
	if got := s.Read("x"); got != "9" {
		t.Fatalf("x = %q, want 9", got)
	}
}
