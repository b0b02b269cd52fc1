package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"speccat/internal/stable"
)

func TestCommitIsDurable(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedUpdate("t1", db, "x", "5"))
	mustOK(t, l.LoggedUpdate("t1", db, "y", "7"))
	mustOK(t, l.Commit("t1"))

	// Crash: volatile db is lost; recover from the log alone.
	rec, outcomes, err := Recover(st)
	mustOK(t, err)
	if rec["x"] != "5" || rec["y"] != "7" {
		t.Fatalf("recovered db = %v", rec)
	}
	if len(outcomes) != 1 || !outcomes[0].Committed {
		t.Fatalf("outcomes = %v", outcomes)
	}
}

func TestUncommittedIsUndone(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedUpdate("t1", db, "x", "5"))
	// Crash before commit.
	rec, outcomes, err := Recover(st)
	mustOK(t, err)
	if _, ok := rec["x"]; ok {
		t.Fatalf("uncommitted update survived: %v", rec)
	}
	if len(outcomes) != 1 || outcomes[0].Committed {
		t.Fatalf("outcomes = %v", outcomes)
	}
}

func TestAbortUndo(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{"x": "old"}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedUpdate("t1", db, "x", "new"))
	mustOK(t, l.Abort("t1"))
	mustOK(t, l.UndoOwnedInto("t1", db, nil))
	if db["x"] != "old" {
		t.Fatalf("undo failed: %v", db)
	}
	rec, _, err := Recover(st)
	mustOK(t, err)
	if rec["x"] != "" {
		t.Fatalf("aborted txn redone: %v", rec)
	}
}

func TestWriteAheadOrdering(t *testing.T) {
	// The log record must be on stable storage before the db mutation:
	// after LoggedUpdate, the last log record describes the new value.
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedUpdate("t1", db, "x", "5"))
	recs, err := Records(st)
	mustOK(t, err)
	last := recs[len(recs)-1]
	if last.Kind != RecUpdate || last.New != "5" || last.Old != "" {
		t.Fatalf("last record = %+v", last)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedUpdate("t1", db, "x", "1"))
	mustOK(t, l.Commit("t1"))
	mustOK(t, l.Begin("t2"))
	mustOK(t, l.LoggedUpdate("t2", db, "x", "2"))
	// t2 unresolved at crash.
	r1, _, err := Recover(st)
	mustOK(t, err)
	r2, _, err := Recover(st) // second crash during recovery: recover again
	mustOK(t, err)
	if r1["x"] != "1" || r2["x"] != "1" {
		t.Fatalf("recoveries disagree: %v vs %v", r1, r2)
	}
}

func TestInterleavedTransactions(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("a"))
	mustOK(t, l.Begin("b"))
	mustOK(t, l.LoggedUpdate("a", db, "x", "ax"))
	mustOK(t, l.LoggedUpdate("b", db, "y", "by"))
	mustOK(t, l.LoggedUpdate("a", db, "z", "az"))
	mustOK(t, l.Commit("a"))
	// b crashes uncommitted.
	rec, _, err := Recover(st)
	mustOK(t, err)
	if rec["x"] != "ax" || rec["z"] != "az" {
		t.Fatalf("committed txn lost: %v", rec)
	}
	if _, ok := rec["y"]; ok {
		t.Fatalf("uncommitted txn leaked: %v", rec)
	}
}

func TestActive(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("a"))
	mustOK(t, l.Begin("b"))
	mustOK(t, l.Begin("c"))
	mustOK(t, l.LoggedUpdate("a", db, "x", "1"))
	mustOK(t, l.Commit("a"))
	mustOK(t, l.Abort("b"))
	active, err := Active(st)
	mustOK(t, err)
	if len(active) != 1 || active[0] != "c" {
		t.Fatalf("active = %v", active)
	}
}

func TestStateErrors(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	if err := l.Commit("ghost"); !errors.Is(err, ErrTxnState) {
		t.Fatal(err)
	}
	if err := l.LoggedUpdate("ghost", db, "x", "1"); !errors.Is(err, ErrTxnState) {
		t.Fatal(err)
	}
	mustOK(t, l.Begin("t"))
	if err := l.Begin("t"); !errors.Is(err, ErrTxnState) {
		t.Fatal(err)
	}
	mustOK(t, l.Abort("t"))
	if err := l.Abort("t"); !errors.Is(err, ErrTxnState) {
		t.Fatal(err)
	}
}

// TestCorruptLog: a record that does not decode, or decodes to something
// recovery cannot interpret, is ErrCorrupt. The last case is the one that
// used to lose data: a committed update with an unknown operation folded
// as a no-op, so the write silently vanished.
func TestCorruptLog(t *testing.T) {
	for _, bad := range []string{
		"{not json",
		"null",
		`{"k":0,"t":"t1"}`,
		`{"k":99,"t":"t1"}`,
		`{"k":2,"t":"t1","x":"a","p":"mul","a":"2"}`,
	} {
		st := stable.NewStore()
		st.Append([]byte(`{"k":1,"t":"t1"}`))
		st.Append([]byte(bad))
		st.Append([]byte(`{"k":3,"t":"t1"}`))
		if _, _, err := Recover(st); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Recover over %s = %v, want ErrCorrupt", bad, err)
		}
	}
}

// Property: atomicity under crash at an arbitrary point. Run a scripted
// sequence of transactions; crash after a random number of log records
// (simulated by truncating the log); recovery must show each transaction
// either fully applied or fully absent.
func TestCrashAtomicityProperty(t *testing.T) {
	prop := func(seed int64, nTxn uint8, cut uint8) bool {
		r := rand.New(rand.NewSource(seed))
		st := stable.NewStore()
		l := New(st)
		db := map[string]string{}
		total := int(nTxn%8) + 1
		expect := map[string]map[string]string{} // txn -> its writes
		for i := 0; i < total; i++ {
			txn := fmt.Sprintf("t%d", i)
			if err := l.Begin(txn); err != nil {
				return false
			}
			writes := map[string]string{}
			for j := 0; j <= r.Intn(3); j++ {
				k := fmt.Sprintf("k%d", r.Intn(5))
				v := fmt.Sprintf("%s-%d", txn, j)
				if err := l.LoggedUpdate(txn, db, k, v); err != nil {
					return false
				}
				writes[k] = v
			}
			if err := l.Commit(txn); err != nil {
				return false
			}
			expect[txn] = writes
		}
		// Crash: keep only a prefix of the log.
		keep := int(cut) % (st.LogLen() + 1)
		if err := st.TruncateLog(keep); err != nil {
			return false
		}
		rec, outcomes, err := Recover(st)
		if err != nil {
			return false
		}
		// Each surviving-committed transaction's final writes must be
		// consistent: a key's recovered value must be the value written by
		// the LAST committed transaction (in log order) that wrote it.
		committed := map[string]bool{}
		for _, o := range outcomes {
			committed[o.Txn] = o.Committed
		}
		want := map[string]string{}
		recs, err := Records(st)
		if err != nil {
			return false
		}
		for _, rcd := range recs {
			if rcd.Kind == RecUpdate && committed[rcd.Txn] {
				want[rcd.Key] = rcd.New
			}
		}
		if len(want) != len(rec) {
			return false
		}
		for k, v := range want {
			if rec[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
