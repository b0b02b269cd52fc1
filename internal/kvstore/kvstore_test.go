package kvstore

import (
	"errors"
	"testing"

	"speccat/internal/stable"
)

func open(t *testing.T) (*Store, *stable.Store) {
	t.Helper()
	st := stable.NewStore()
	s, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestBasicTransaction(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Put("t1", "x", "1"))
	v, err := s.Get("t1", "x")
	mustOK(t, err)
	if v != "1" {
		t.Fatalf("Get = %q", v)
	}
	mustOK(t, s.Commit("t1"))
	if s.Read("x") != "1" {
		t.Fatalf("committed read = %q", s.Read("x"))
	}
	if s.OpenTxns() != 0 {
		t.Fatal("transaction still open")
	}
}

func TestAbortRollsBack(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t0"))
	mustOK(t, s.Put("t0", "x", "init"))
	mustOK(t, s.Commit("t0"))
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Put("t1", "x", "dirty"))
	mustOK(t, s.Abort("t1"))
	if s.Read("x") != "init" {
		t.Fatalf("abort did not roll back: %q", s.Read("x"))
	}
}

func TestConflictDetected(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("a"))
	mustOK(t, s.Begin("b"))
	mustOK(t, s.Put("a", "x", "1"))
	if _, err := s.Get("b", "x"); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	// The refusal left nothing behind: once a commits, b's retry is granted.
	mustOK(t, s.Commit("a"))
	if _, err := s.Get("b", "x"); err != nil {
		t.Fatalf("retry after the holder committed: %v", err)
	}
}

func TestSharedReadsOK(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("a"))
	mustOK(t, s.Begin("b"))
	if _, err := s.Get("a", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("b", "x"); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryKeepsCommitted(t *testing.T) {
	s, st := open(t)
	mustOK(t, s.Begin("t1"))
	mustOK(t, s.Put("t1", "x", "durable"))
	mustOK(t, s.Commit("t1"))
	mustOK(t, s.Begin("t2"))
	mustOK(t, s.Put("t2", "x", "volatile"))
	// Crash: reopen from the same stable store.
	s2, err := Open(st)
	mustOK(t, err)
	if s2.Read("x") != "durable" {
		t.Fatalf("recovered = %q", s2.Read("x"))
	}
}

func TestUnknownTxnErrors(t *testing.T) {
	s, _ := open(t)
	if _, err := s.Get("ghost", "x"); !errors.Is(err, ErrNoTxn) {
		t.Fatal(err)
	}
	if err := s.Put("ghost", "x", "1"); !errors.Is(err, ErrNoTxn) {
		t.Fatal(err)
	}
	if err := s.Commit("ghost"); !errors.Is(err, ErrNoTxn) {
		t.Fatal(err)
	}
	if err := s.Abort("ghost"); !errors.Is(err, ErrNoTxn) {
		t.Fatal(err)
	}
}

func TestSnapshotExport(t *testing.T) {
	s, _ := open(t)
	mustOK(t, s.Begin("t"))
	mustOK(t, s.Put("t", "a", "1"))
	mustOK(t, s.Commit("t"))
	snap := s.Snapshot()
	if snap["a"] != "1" {
		t.Fatalf("snapshot = %v", snap)
	}
	snap["a"] = "tampered"
	if s.Read("a") != "1" {
		t.Fatal("snapshot aliases store")
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
