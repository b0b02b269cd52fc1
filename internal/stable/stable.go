// Package stable models the paper's assumption 4: a stable storage medium
// whose contents survive site crashes. Each site owns one Store with a
// key-value area (checkpoints, protocol metadata) and an append-only log
// area (write-ahead logging). The contract is the same on both media (in
// memory for the simulator, a file journal for tpcserve): a mutation is
// applied at once and survives a crash once a Sync covers it. A crash
// destroys the site's volatile state and whatever the store was handed
// since its last Sync, never what a Sync covered.
package stable

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrTruncate is returned for invalid log truncations.
var ErrTruncate = errors.New("stable: invalid truncation")

// Store is crash-surviving storage for one site. The zero value is ready
// to use.
type Store struct {
	mu  sync.Mutex
	kv  map[string][]byte
	log [][]byte
	// write counters let tests assert write-ahead ordering.
	kvWrites  int
	logWrites int
	// frozen models the medium of a crashed site: reads still work (the
	// contents survive the crash), but mutations are silently discarded —
	// a dead site cannot force anything to disk. The simulator freezes a
	// site's store for the duration of its crash.
	frozen bool
	// journal, when non-nil, makes the medium real: every applied mutation
	// is appended to a file journal, Sync fsyncs it, and OpenFile replays
	// it on restart. See file.go; a nil journal is the simulator's
	// in-memory medium.
	journal *fileJournal
	syncs   int
	onSync  func(n int)
	// the unsynced window (in-memory medium only): what a crash (SetFrozen)
	// takes back, exactly as a real crash destroys the page cache. undoKV
	// holds what each key written since the last Sync held before (nil =
	// absent), keepLog the length of the synced log prefix still in place,
	// cutLog the synced records a TruncateLog below keepLog removed, and
	// the two counters the write counts as of the last Sync. Sync drops the
	// window; its cost follows the writes since the last Sync, not the
	// store.
	undoKV          map[string][]byte
	keepLog         int
	cutLog          [][]byte
	syncedKVWrites  int
	syncedLogWrites int
	// leader/follower batching state (file journal only):
	// mutGen counts journaled-but-unsynced records, syncedGen the highest
	// generation a completed fsync covered. A Sync caller whose target is
	// already covered returns without touching the disk; otherwise one
	// caller becomes leader, fsyncs once for everyone, and followers
	// block on syncDone.
	mutGen    int
	syncedGen int
	syncing   bool
	syncDone  *sync.Cond
	// pipelined group commit (file journal only): SyncThen queues its
	// callback behind the current mutation generation instead of blocking
	// the caller on the fsync; a lazily-started syncer goroutine batches
	// one fsync over every queued generation and hands the callbacks, in
	// submission order, to the dispatcher once they are durable. Without a
	// dispatcher (SetSyncDispatch) SyncThen degrades to Sync-then-call —
	// the deterministic inline path the simulator uses.
	dispatch func(fn func())
	pend     []pendItem
	pendReq  *sync.Cond
	syncerUp bool
}

// pendItem is one queued SyncThen callback and the mutation generation an
// fsync must cover before it may run.
type pendItem struct {
	gen int
	fn  func()
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// SetFrozen freezes or thaws the store. While frozen, Put, Delete, Append,
// and TruncateLog are silently discarded (counters included) and reads see
// the contents as of the freeze — the storage a crashed site leaves behind.
// The freeze first takes back the in-memory medium's unsynced window: the
// crash destroys whatever no Sync covered.
func (s *Store) SetFrozen(frozen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if frozen && !s.frozen && s.journal == nil {
		s.revertLocked()
	}
	s.frozen = frozen
}

// SetGroupCommit does nothing: every store group-commits.
//
// Deprecated: kept only because bench/ calls it by name (the next change
// to bench/ deletes it); `make lint` greps that nothing else does.
func (s *Store) SetGroupCommit(bool) {}

// Sync makes every mutation applied so far durable and returns the first
// journal error, if any. Concurrent callers on a file journal batch: one
// leader issues a single fsync covering every record written so far and
// the followers block on it instead of issuing their own.
func (s *Store) Sync() error {
	s.mu.Lock()
	if s.frozen { // a crashed site cannot force anything to disk
		s.mu.Unlock()
		return nil
	}
	var err error
	if s.journal == nil {
		s.dropWindowLocked()
		s.syncs++
	} else {
		err = s.syncToLocked(s.mutGen)
	}
	n, hook := s.syncs, s.onSync
	s.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	return err
}

// syncToLocked drives the leader/follower batching protocol until a
// completed fsync covers target. Called with s.mu held; returns with it
// held. One caller becomes leader and fsyncs once for every generation
// written so far; the rest block on syncDone instead of issuing their own.
func (s *Store) syncToLocked(target int) error {
	j := s.journal
	for s.syncedGen < target {
		if s.syncing {
			s.syncDone.Wait()
			continue
		}
		s.syncing = true
		covered := s.mutGen
		s.mu.Unlock()
		err := j.f.Sync() // one fsync for the whole batch
		s.mu.Lock()
		s.syncing = false
		if err != nil && j.err == nil {
			j.err = fmt.Errorf("stable: journal sync: %w", err)
		}
		if covered > s.syncedGen {
			s.syncedGen = covered
		}
		s.syncs++
		s.syncDone.Broadcast()
	}
	return j.err
}

// SetSyncDispatch installs the executor SyncThen hands durable callbacks
// to — the serving path passes a closure that re-enqueues the callback on
// the node's event loop, which keeps engine code single-threaded. Leaving
// it unset keeps SyncThen fully synchronous (Sync, then the callback on
// the caller's stack), which is what the deterministic simulator needs.
func (s *Store) SetSyncDispatch(fn func(fn func())) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatch = fn
}

// SyncThen arranges fn to run once every mutation applied so far is
// durable, and never if a journal write or fsync it depends on failed:
// the failure sticks (JournalErr), so no later callback runs either, and
// nothing that depends on an unforced record is ever announced. Without a
// journal or dispatcher there is nothing to overlap, and this is Sync
// followed by fn inline. With a dispatcher on a file journal the fsync
// moves off the caller's goroutine entirely: fn queues behind the current
// mutation generation, the syncer goroutine covers every queued callback
// with one batched fsync, and fn is dispatched afterwards. That is
// pipelined group commit: a serial event loop keeps absorbing concurrent
// transactions while the disk settles, instead of stalling a full fsync
// at every sync point.
func (s *Store) SyncThen(fn func()) {
	s.mu.Lock()
	if s.frozen || s.journal == nil || s.dispatch == nil {
		s.mu.Unlock()
		if s.Sync() == nil {
			fn()
		}
		return
	}
	s.pend = append(s.pend, pendItem{gen: s.mutGen, fn: fn})
	if s.pendReq == nil {
		s.pendReq = sync.NewCond(&s.mu)
	}
	if !s.syncerUp {
		s.syncerUp = true
		go s.syncLoop()
	}
	s.pendReq.Signal()
	s.mu.Unlock()
}

// syncLoop is the background half of SyncThen: it drains the pending
// queue in batches, makes each batch durable with one fsync through the
// same leader/follower path Sync uses, and dispatches the callbacks in
// submission order. It exits when the journal is closed and the queue is
// empty (Close wakes it for that check).
func (s *Store) syncLoop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.pend) == 0 {
			if s.journal == nil {
				s.syncerUp = false
				return
			}
			s.pendReq.Wait()
		}
		batch := s.pend
		s.pend = nil
		if s.journal != nil && s.syncToLocked(batch[len(batch)-1].gen) != nil {
			batch = nil // a failed write or fsync: the callbacks never run
		}
		n, hook, dispatch := s.syncs, s.onSync, s.dispatch
		s.mu.Unlock()
		if hook != nil {
			hook(n)
		}
		for _, p := range batch {
			dispatch(p.fn)
		}
		s.mu.Lock()
	}
}

// Syncs reports how many batched Sync operations have completed — the
// figure concurrent-committer tests pin against the number of committers.
func (s *Store) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// SetOnSync installs a hook invoked (outside the store lock) after each
// completed Sync with the running sync count. The explorer uses it to land
// crash faults exactly at batch boundaries.
func (s *Store) SetOnSync(fn func(n int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSync = fn
}

// dropWindowLocked makes the live contents the synced ones.
func (s *Store) dropWindowLocked() {
	s.undoKV, s.keepLog, s.cutLog = nil, len(s.log), nil
	s.syncedKVWrites, s.syncedLogWrites = s.kvWrites, s.logWrites
}

// revertLocked puts the unsynced window back, restoring the store (write
// counters included) to what the last Sync covered.
func (s *Store) revertLocked() {
	for k, v := range s.undoKV {
		if v == nil {
			delete(s.kv, k)
		} else {
			s.kv[k] = v
		}
	}
	s.log = append(s.log[:s.keepLog], s.cutLog...)
	s.kvWrites, s.logWrites = s.syncedKVWrites, s.syncedLogWrites
	s.dropWindowLocked()
}

// undoLocked notes, the first time key is written after a Sync, what it
// held at that Sync. Stored values are never modified in place, so the
// window shares them.
func (s *Store) undoLocked(key string) {
	if _, noted := s.undoKV[key]; noted || s.journal != nil {
		return
	}
	if s.undoKV == nil {
		s.undoKV = map[string][]byte{}
	}
	s.undoKV[key] = s.kv[key]
}

// Frozen reports whether mutations are currently discarded.
func (s *Store) Frozen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frozen
}

// Put stores a copy of value under key.
func (s *Store) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return
	}
	if s.kv == nil {
		s.kv = map[string][]byte{}
	}
	s.undoLocked(key)
	s.kv[key] = append([]byte{}, value...)
	s.kvWrites++
	s.journalRecord(journalRec{Op: opPut, Key: key, Val: value})
}

// Get returns a copy of the value under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.kv[key]
	if !ok {
		return nil, false
	}
	return append([]byte{}, v...), true
}

// Delete removes key.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return
	}
	s.undoLocked(key)
	delete(s.kv, key)
	s.kvWrites++
	s.journalRecord(journalRec{Op: opDelete, Key: key})
}

// Keys returns all keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.kv))
	for k := range s.kv {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Append adds a record to the log and returns its index.
func (s *Store) Append(record []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return len(s.log) - 1
	}
	s.log = append(s.log, append([]byte{}, record...))
	s.logWrites++
	s.journalRecord(journalRec{Op: opAppend, Val: record})
	return len(s.log) - 1
}

// LogLen returns the number of log records.
func (s *Store) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// ReadLog returns copies of log records [from, len).
func (s *Store) ReadLog(from int) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(s.log) {
		return nil
	}
	out := make([][]byte, 0, len(s.log)-from)
	for _, r := range s.log[from:] {
		out = append(out, append([]byte{}, r...))
	}
	return out
}

// TruncateLog discards records with index >= n (used after checkpointing).
func (s *Store) TruncateLog(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n > len(s.log) {
		return fmt.Errorf("%w: n=%d len=%d", ErrTruncate, n, len(s.log))
	}
	if s.frozen {
		return nil
	}
	if s.journal == nil && n < s.keepLog { // cutting into the synced prefix: a crash restores it
		s.cutLog = append(append([][]byte{}, s.log[n:s.keepLog]...), s.cutLog...)
		s.keepLog = n
	}
	s.log = s.log[:n]
	s.logWrites++
	s.journalRecord(journalRec{Op: opTrunc, N: n})
	return nil
}

// Writes reports the number of kv and log writes (for write-ahead checks).
func (s *Store) Writes() (kv, log int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kvWrites, s.logWrites
}

// Snapshot returns a deep copy of the full store contents, used by tests
// to compare pre-crash and post-recovery states.
func (s *Store) Snapshot() (kv map[string][]byte, log [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kv = make(map[string][]byte, len(s.kv))
	for k, v := range s.kv {
		kv[k] = append([]byte{}, v...)
	}
	log = make([][]byte, len(s.log))
	for i, r := range s.log {
		log[i] = append([]byte{}, r...)
	}
	return kv, log
}
