package stable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay opens arbitrary bytes as a journal. OpenFile must not
// panic or fail on content alone; what it leaves on disk is a prefix of the
// input ending on a record boundary; and closing and reopening yields the
// same store and the same file. testdata/fuzz holds the seeds frozen in
// today's record format, so pre-format-change journals keep replaying.
func FuzzJournalReplay(f *testing.F) {
	// A journal written by the store itself, then targeted damage to it.
	path := filepath.Join(f.TempDir(), "seed")
	s, err := OpenFile(path)
	if err != nil {
		f.Fatalf("OpenFile: %v", err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Delete("a")
	s.Append([]byte("rec0"))
	s.Append([]byte("rec1"))
	if err := s.TruncateLog(1); err != nil {
		f.Fatalf("TruncateLog: %v", err)
	}
	if err := s.Close(); err != nil {
		f.Fatalf("Close: %v", err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("read seed journal: %v", err)
	}
	lines := bytes.SplitAfter(valid, []byte("\n"))
	tornTail := valid[:len(valid)-3]
	corruptMiddle := bytes.Join([][]byte{lines[0], []byte("{\"op\":\"put\",\"k\":\n"), lines[1], lines[2]}, nil)
	badTrunc := append(append([]byte(nil), valid...), "{\"op\":\"trunc\",\"n\":99}\n{\"op\":\"trunc\",\"n\":-1}\n"...)
	for _, seed := range [][]byte{valid, tornTail, corruptMiddle, badTrunc, []byte("null\n"), {}} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile on %q: %v", data, err)
		}
		kv, log := s.Snapshot()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("recovered journal %q is not a prefix of the input %q", kept, data)
		}
		if len(kept) > 0 && kept[len(kept)-1] != '\n' {
			t.Fatalf("recovered journal %q does not end on a record boundary", kept)
		}

		r, err := OpenFile(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		kv2, log2 := r.Snapshot()
		if err := r.Close(); err != nil {
			t.Fatalf("Close after reopen: %v", err)
		}
		if !reflect.DeepEqual(kv, kv2) || !reflect.DeepEqual(log, log2) {
			t.Fatalf("reopen changed the store: kv %v -> %v, log %q -> %q", kv, kv2, log, log2)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, kept) {
			t.Fatalf("reopen changed the journal: %q -> %q", kept, again)
		}
	})
}
