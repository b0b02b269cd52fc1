package stable

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSyncThenInlineWithoutDispatcher: with no dispatcher installed,
// SyncThen is Sync-then-call on the caller's stack — the deterministic
// shape the simulator relies on — and the record is durable when the
// callback runs.
func TestSyncThenInlineWithoutDispatcher(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer s.Close()

	s.Put("a", []byte("1"))
	ran := false
	s.SyncThen(func() { ran = true })
	if !ran {
		t.Fatal("callback did not run inline")
	}
	if got := s.Syncs(); got != 1 {
		t.Errorf("Syncs() = %d after inline SyncThen, want 1", got)
	}
}

// TestSyncThenInlineOnMemoryStore: the in-memory medium has no journal to
// pipeline, so SyncThen stays inline even with a dispatcher installed —
// and the sync still covers the record exactly like Sync.
func TestSyncThenInlineOnMemoryStore(t *testing.T) {
	s := NewStore()
	s.SetSyncDispatch(func(fn func()) { t.Error("dispatcher used on in-memory store"); fn() })
	s.Put("a", []byte("1"))
	ran := false
	s.SyncThen(func() { ran = true })
	if !ran {
		t.Fatal("callback did not run inline")
	}
	s.SetFrozen(true) // crash: must NOT revert past the SyncThen
	if _, ok := s.Get("a"); !ok {
		t.Error("synced record lost to the crash revert")
	}
}

// TestSyncThenPipelinesAndPreservesOrder: with a dispatcher, SyncThen
// returns before the fsync; the syncer makes every queued callback's
// records durable and dispatches the callbacks in submission order. The
// whole run must take far fewer batched fsyncs than callbacks when the
// queue backs up, but correctness here pins only order and durability —
// batching depth is timing-dependent.
func TestSyncThenPipelinesAndPreservesOrder(t *testing.T) {
	const n = 32
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}

	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	s.SetSyncDispatch(func(fn func()) { fn() }) // test "event loop": run on the syncer

	for i := 0; i < n; i++ {
		i := i
		s.Put(fmt.Sprintf("k%02d", i), []byte("v"))
		s.SyncThen(func() {
			mu.Lock()
			order = append(order, i)
			if len(order) == n {
				close(done)
			}
			mu.Unlock()
		})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks never drained")
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("callback order %v: position %d ran callback %d", order, i, got)
		}
	}
	if got := s.Syncs(); got < 1 || got > n {
		t.Errorf("Syncs() = %d for %d pipelined callbacks, want 1..%d", got, n, n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every callback's record must be durable: reopen and check.
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		if _, ok := r.Get(fmt.Sprintf("k%02d", i)); !ok {
			t.Errorf("record k%02d lost", i)
		}
	}
}

// TestSyncThenCloseDrains: Close while callbacks are queued must still
// leave their records durable (Close fsyncs the journal) and the syncer
// must exit rather than wedge; callbacks queued before Close all run.
func TestSyncThenCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	var ran sync.WaitGroup
	s.SetSyncDispatch(func(fn func()) { fn() })
	const n = 8
	ran.Add(n)
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
		s.SyncThen(ran.Done)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ran.Wait() // all callbacks ran despite the close racing the syncer

	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		if _, ok := r.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("record k%d lost across close", i)
		}
	}
}

// TestSyncThenNeverRunsOverAFailedJournal: a callback whose covering
// write or fsync failed never runs, and because the failure sticks
// (JournalErr) no later callback does either — on the dispatching path
// and on the inline one. The journal file is closed under the store, so
// the fsync covering a record written before fails, and so does every
// write after.
func TestSyncThenNeverRunsOverAFailedJournal(t *testing.T) {
	for _, dispatching := range []bool{true, false} {
		s, err := OpenFile(filepath.Join(t.TempDir(), "journal"))
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		if dispatching {
			s.SetSyncDispatch(func(fn func()) { fn() })
		}
		var ran atomic.Int32
		s.Put("a", []byte("1"))
		s.mu.Lock()
		s.journal.f.Close()
		s.mu.Unlock()
		s.SyncThen(func() { ran.Add(1) }) // the fsync covering a fails
		s.Put("b", []byte("2"))           // the write fails
		s.SyncThen(func() { ran.Add(1) })
		if s.JournalErr() == nil {
			t.Fatalf("dispatching=%v: no journal error after writing to a closed file", dispatching)
		}
		_ = s.Close() // fails on the closed file, and tells the syncer to exit
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			up := s.syncerUp
			s.mu.Unlock()
			if !up {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("dispatching=%v: syncer never exited", dispatching)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("dispatching=%v: %d callbacks ran over a failed journal, want none", dispatching, n)
		}
	}
}
