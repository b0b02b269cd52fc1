package stable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestGroupCommitBatchesFsyncs is the "N committers, ≪ N fsyncs" pin:
// rounds of concurrent committers each journal a record and then call
// Sync simultaneously; leader/follower batching must collapse every
// round's syncs into a single fsync, so the store's sync counter equals
// the round count, not the committer count.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	const committers, rounds = 8, 5
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer s.Close()

	for round := 0; round < rounds; round++ {
		var wrote, synced sync.WaitGroup
		start := make(chan struct{})
		wrote.Add(committers)
		synced.Add(committers)
		for c := 0; c < committers; c++ {
			go func(c int) {
				s.Put(fmt.Sprintf("r%d.c%d", round, c), []byte("v"))
				wrote.Done()
				<-start // barrier: all records written before any Sync
				if err := s.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
				}
				synced.Done()
			}(c)
		}
		wrote.Wait()
		close(start)
		synced.Wait()
	}

	if got := s.Syncs(); got != rounds {
		t.Errorf("Syncs() = %d for %d committers × %d rounds, want %d (one fsync per batch)",
			got, committers, rounds, rounds)
	}
	// Every record must still be durable: reopen and count.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := len(r.Keys()); got != committers*rounds {
		t.Errorf("reopened store has %d keys, want %d", got, committers*rounds)
	}
}

// TestGroupCommitCrashRevert proves the in-memory medium's batch-window
// crash semantics: a freeze reverts to what the last Sync covered, so the
// unsynced tail — kv, log, and write counters alike — never happened.
func TestGroupCommitCrashRevert(t *testing.T) {
	s := NewStore()
	s.Put("boot", []byte("x"))
	if err := s.Sync(); err != nil { // the baseline a crash goes back to
		t.Fatalf("Sync: %v", err)
	}

	s.Put("a", []byte("1"))
	s.Append([]byte("rec0"))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	kvW, logW := s.Writes()

	s.Put("b", []byte("2"))
	s.Append([]byte("rec1"))
	if err := s.TruncateLog(0); err != nil {
		t.Fatalf("TruncateLog: %v", err)
	}

	s.SetFrozen(true) // crash: the open batch window is destroyed
	if _, ok := s.Get("b"); ok {
		t.Error("unsynced put survived the crash")
	}
	if v, ok := s.Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Errorf("synced put lost: got %q, %v", v, ok)
	}
	if got := s.LogLen(); got != 1 {
		t.Errorf("log length after crash = %d, want 1 (unsynced append+truncate reverted)", got)
	}
	if gk, gl := s.Writes(); gk != kvW || gl != logW {
		t.Errorf("write counters after crash = (%d,%d), want (%d,%d)", gk, gl, kvW, logW)
	}

	s.SetFrozen(false) // recovery thaws; the tail stays gone
	if _, ok := s.Get("b"); ok {
		t.Error("unsynced put resurfaced after recovery")
	}
	if got := s.Syncs(); got != 2 {
		t.Errorf("Syncs() = %d, want 2", got)
	}
}

// TestGroupCommitOnSyncHook proves the hook fires outside the store lock
// with the running count — it must be able to freeze the same store
// (the explorer's crash-at-sync fault does exactly that) without
// deadlocking.
func TestGroupCommitOnSyncHook(t *testing.T) {
	s := NewStore()
	var calls []int
	s.SetOnSync(func(n int) {
		calls = append(calls, n)
		if n == 2 {
			s.SetFrozen(true) // crash exactly at the batch boundary
		}
	})
	s.Put("a", []byte("1"))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Put("b", []byte("2"))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Errorf("hook calls = %v, want [1 2]", calls)
	}
	if !s.Frozen() {
		t.Error("hook-driven freeze did not take effect")
	}
	if _, ok := s.Get("b"); !ok {
		t.Error("put synced before the crash point must survive it")
	}
}

// TestGroupCommitFrozenSyncDiscarded proves a crashed site cannot force
// anything to disk: Sync while frozen neither covers anything nor counts.
func TestGroupCommitFrozenSyncDiscarded(t *testing.T) {
	s := NewStore()
	s.Put("a", []byte("1"))
	s.SetFrozen(true)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.Syncs(); got != 0 {
		t.Errorf("Syncs() while frozen = %d, want 0", got)
	}
	s.SetFrozen(false)
	if _, ok := s.Get("a"); ok {
		t.Error("pre-crash unsynced put survived")
	}
}

// TestOpenFileDurableTruncate is the torn-tail regression test for the
// truncate-without-sync bug: after OpenFile discards a torn tail, the
// bytes on disk must already be the valid prefix — before any new record
// is appended and before Close — so a second crash cannot resurrect the
// corrupt tail.
func TestOpenFileDurableTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	s.Put("a", []byte("1"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	torn := append(append([]byte{}, clean...), []byte(`{"op":"put","k":"b"`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	// Check the on-disk bytes immediately — the store is still open, so a
	// crash "now" must already find the truncated prefix.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read truncated journal: %v", err)
	}
	if !bytes.Equal(got, clean) {
		t.Errorf("journal after torn-tail recovery = %q, want valid prefix %q", got, clean)
	}
	if _, ok := r.Get("b"); ok {
		t.Error("torn record replayed")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second restart replays the same clean prefix: the discard held.
	r2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer r2.Close()
	if v, ok := r2.Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Errorf("valid record lost across double restart: %q, %v", v, ok)
	}
}
