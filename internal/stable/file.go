package stable

// File-journaled stable storage: the serving path's real medium. Every
// mutation the in-memory Store applies is appended to a journal file as
// one JSON record per line; the record sits in the OS cache until a Sync
// batch covers it (and every concurrent neighbour) with one fsync, so a
// process crash finds on disk every mutation a completed Sync covered.
// OpenFile replays the journal into a fresh Store on restart; a torn
// tail (the partial last line a mid-write crash leaves) is discarded and
// truncated away, which is exactly the WAL recovery rule: an incomplete
// append never happened.
//
// The journal is the store's *physical* log; the Store's log area is the
// protocols' *logical* WAL. Journaling at the mutation level (put,
// delete, append, truncate) keeps the two independent: the simulator's
// freeze semantics, write counters and the durcheck write-ahead analysis
// all see the identical Store either way.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// journal record operations.
const (
	opPut    = "put"
	opDelete = "del"
	opAppend = "log"
	opTrunc  = "trunc"
)

// journalRec is one mutation on disk.
type journalRec struct {
	Op  string `json:"op"`
	Key string `json:"k,omitempty"`
	Val []byte `json:"v,omitempty"`
	N   int    `json:"n,omitempty"`
}

// fileJournal is the append half of a journal-backed store.
type fileJournal struct {
	f   *os.File
	err error
}

// journalRecord appends one mutation to the journal (no-op for in-memory
// stores). Called with s.mu held, so journal order equals logical
// mutation order. The first write or sync failure sticks (JournalErr);
// later mutations still apply in memory — the medium degrades to
// volatile rather than wedging the engines mid-protocol.
func (s *Store) journalRecord(r journalRec) {
	j := s.journal
	if j == nil || j.err != nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		j.err = fmt.Errorf("stable: journal encode: %w", err)
		return
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		j.err = fmt.Errorf("stable: journal write: %w", err)
		return
	}
	s.mutGen++ // durable once a Sync batch covers this generation
}

// JournalErr reports the first journal write failure, or nil (always nil
// for in-memory stores).
func (s *Store) JournalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	return s.journal.err
}

// Close syncs and closes the journal file. In-memory stores have nothing
// to close. Mutations after Close are applied in memory only.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	j := s.journal
	s.journal = nil
	s.dropWindowLocked() // from here on the store is an in-memory one
	if s.pendReq != nil {
		// Wake the SyncThen syncer so it observes the closed journal and
		// exits once its queue drains.
		s.pendReq.Broadcast()
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("stable: close journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("stable: close journal: %w", err)
	}
	return nil
}

// OpenFile opens a journal-backed store, creating the journal at path if
// absent and replaying it if present. A torn final record is discarded
// and truncated away. The returned store journals every subsequent
// mutation; Sync makes them durable.
func OpenFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("stable: open journal %s: %w", path, err)
	}
	s := NewStore()
	valid := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: record never finished writing
		}
		var r journalRec
		if json.Unmarshal(data[off:off+nl], &r) != nil {
			break // corrupt tail: same recovery rule
		}
		s.applyRec(r)
		off += nl + 1
		valid = off
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stable: open journal %s: %w", path, err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, fmt.Errorf("stable: truncate torn journal %s: %w", path, err)
	}
	// The truncation itself must be durable before any new record lands
	// after it: without this fsync a second crash can resurrect the torn
	// tail we just discarded, splicing corrupt bytes between valid records.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("stable: sync truncated journal %s: %w", path, err)
	}
	// O_CREATE only stages the new name in the directory's cache; until the
	// directory itself is fsynced a crash can lose the file — and with it
	// every record "durably" journaled since. (Also covers the truncate's
	// metadata on filesystems that journal size changes through the parent.)
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("stable: sync journal dir for %s: %w", path, err)
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("stable: seek journal %s: %w", path, err)
	}
	s.mu.Lock()
	s.dropWindowLocked() // the replay ran through Put/Append: all of it is synced
	s.journal = &fileJournal{f: f}
	s.syncDone = sync.NewCond(&s.mu)
	s.mu.Unlock()
	return s, nil
}

// syncDir fsyncs a directory so a just-created (or just-truncated) entry
// in it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// applyRec replays one journal record into the in-memory store (journal
// not yet attached, so replay does not re-journal). Unknown ops are
// skipped: a journal written by a newer version replays what this
// version understands rather than failing recovery outright.
func (s *Store) applyRec(r journalRec) {
	switch r.Op {
	case opPut:
		s.Put(r.Key, r.Val)
	case opDelete:
		s.Delete(r.Key)
	case opAppend:
		s.Append(r.Val)
	case opTrunc:
		_ = s.TruncateLog(r.N)
	}
}
