package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"speccat/internal/stable"
)

// FuzzWALDecode recovers from arbitrary log bytes, one record per line.
// Recover must not panic; it either rejects the log with an error wrapping
// ErrCorrupt, or returns a state a second Recover reproduces exactly.
// testdata/fuzz holds the seeds frozen in today's record format, so
// pre-format-change logs keep replaying.
func FuzzWALDecode(f *testing.F) {
	// A log written by the package itself, then targeted damage to it.
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	for _, step := range []error{
		l.Begin("t1"), l.LoggedUpdate("t1", db, "a", "1"), l.LoggedApply("t1", db, "n", OpInc, "5"),
		l.Begin("t2"), l.LoggedApply("t2", db, "s", OpSetInsert, "x"), l.Commit("t1"), l.Abort("t2"),
	} {
		if step != nil {
			f.Fatal(step)
		}
	}
	valid := bytes.Join(st.ReadLog(0), []byte("\n"))
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(append(append([]byte(nil), valid...), "\n{\"k\":99,\"t\":\"t1\"}"...))
	f.Add(bytes.Replace(valid, []byte(`"p":"inc"`), []byte(`"p":"mul"`), 1))
	f.Add([]byte("null"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st := stable.NewStore()
		for _, rec := range bytes.Split(data, []byte("\n")) {
			st.Append(rec)
		}
		db, outcomes, err := Recover(st)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Recover on %q: %v does not wrap ErrCorrupt", data, err)
			}
			return
		}
		db2, outcomes2, err := Recover(st)
		if err != nil || !reflect.DeepEqual(db, db2) || !reflect.DeepEqual(outcomes, outcomes2) {
			t.Fatalf("second Recover on %q differs: %v %v -> %v %v (%v)", data, db, outcomes, db2, outcomes2, err)
		}
	})
}
