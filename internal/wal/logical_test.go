package wal

import (
	"testing"

	"speccat/internal/stable"
)

// TestApplyCanonical pins the canonical encodings of the three logical
// operations: increments sum decimal strings, appends keep a sorted
// multiset, set-inserts a sorted duplicate-free set.
func TestApplyCanonical(t *testing.T) {
	cases := []struct {
		op, cur, arg, want string
	}{
		{OpInc, "", "5", "5"},
		{OpInc, "5", "-2", "3"},
		{OpInc, "-3", "-4", "-7"},
		{OpAppend, "", "b", "b"},
		{OpAppend, "b", "a", "a,b"},
		{OpAppend, "a,b", "a", "a,a,b"},
		{OpSetInsert, "", "b", "b"},
		{OpSetInsert, "b", "a", "a,b"},
		{OpSetInsert, "a,b", "a", "a,b"},
		{"bogus", "x", "y", "x"},
	}
	for _, tc := range cases {
		if got := Apply(tc.op, tc.cur, tc.arg); got != tc.want {
			t.Errorf("Apply(%s, %q, %q) = %q, want %q", tc.op, tc.cur, tc.arg, got, tc.want)
		}
	}
}

// TestApplyOrderIndependent pins the property the lock matrix rests on:
// folding two operations of one commuting class in either order yields
// identical bytes.
func TestApplyOrderIndependent(t *testing.T) {
	cases := []struct {
		op, cur, x, y string
	}{
		{OpInc, "10", "3", "-7"},
		{OpAppend, "m", "a", "z"},
		{OpAppend, "", "a", "a"},
		{OpSetInsert, "m", "a", "a"},
		{OpSetInsert, "a", "b", "a"},
	}
	for _, tc := range cases {
		xy := Apply(tc.op, Apply(tc.op, tc.cur, tc.x), tc.y)
		yx := Apply(tc.op, Apply(tc.op, tc.cur, tc.y), tc.x)
		if xy != yx {
			t.Errorf("%s from %q: x-then-y = %q but y-then-x = %q", tc.op, tc.cur, xy, yx)
		}
	}
}

// TestLoggedApplyWriteAhead pins the write-ahead rule for logical
// records: after LoggedApply, the last stable record carries the
// operation, argument, and both images, and db holds the folded value.
func TestLoggedApplyWriteAhead(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{"x": "5"}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedApply("t1", db, "x", OpInc, "3"))
	if db["x"] != "8" {
		t.Fatalf("db[x] = %q, want 8", db["x"])
	}
	recs, err := Records(st)
	mustOK(t, err)
	last := recs[len(recs)-1]
	if last.Kind != RecUpdate || last.Op != OpInc || last.Arg != "3" || last.Old != "5" || last.New != "8" {
		t.Fatalf("last record = %+v", last)
	}
}

// TestRecoverFoldsLogicalRecords pins redo-as-fold: with one of two
// concurrent increments aborted, recovery must produce the committed
// delta alone — replaying the committed record's absolute after-image
// would resurrect the aborted increment it was computed on top of.
func TestRecoverFoldsLogicalRecords(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.Begin("t2"))
	mustOK(t, l.LoggedApply("t1", db, "x", OpInc, "10"))
	mustOK(t, l.LoggedApply("t2", db, "x", OpInc, "100")) // logged New is 110
	mustOK(t, l.Abort("t1"))
	mustOK(t, l.Commit("t2"))
	rec, _, err := Recover(st)
	mustOK(t, err)
	if rec["x"] != "100" {
		t.Fatalf("recovered x = %q, want 100 (t2's delta alone)", rec["x"])
	}
}

// TestUndoIntoInvertsLogicalRecords pins undo-as-inverse on the live db:
// rolling back one of two interleaved increments preserves the
// survivor's delta, and a set-insert of an element that already existed
// undoes to a no-op.
func TestUndoIntoInvertsLogicalRecords(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{"s": "a"}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.Begin("t2"))
	mustOK(t, l.LoggedApply("t1", db, "x", OpInc, "10"))
	mustOK(t, l.LoggedApply("t2", db, "x", OpInc, "100"))
	mustOK(t, l.LoggedApply("t1", db, "s", OpSetInsert, "a")) // pre-existing element
	mustOK(t, l.LoggedApply("t1", db, "s", OpSetInsert, "b"))
	mustOK(t, l.Abort("t1"))
	mustOK(t, l.UndoOwnedInto("t1", db, nil))
	if db["x"] != "100" {
		t.Fatalf("db[x] = %q after undo, want 100 (t2's delta preserved)", db["x"])
	}
	if db["s"] != "a" {
		t.Fatalf("db[s] = %q after undo, want a (pre-existing element kept)", db["s"])
	}
	mustOK(t, l.Commit("t2"))
	rec, _, err := Recover(st)
	mustOK(t, err)
	if rec["x"] != "100" {
		t.Fatalf("recovered x = %q, want 100", rec["x"])
	}
}

// TestAppendUndoRemovesOneOccurrence pins multiset undo: only the
// aborted transaction's own copy leaves the list.
func TestAppendUndoRemovesOneOccurrence(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.Begin("t2"))
	mustOK(t, l.LoggedApply("t1", db, "lst", OpAppend, "a"))
	mustOK(t, l.LoggedApply("t2", db, "lst", OpAppend, "a"))
	mustOK(t, l.Abort("t1"))
	mustOK(t, l.UndoOwnedInto("t1", db, nil))
	if db["lst"] != "a" {
		t.Fatalf("db[lst] = %q after undo, want one surviving copy", db["lst"])
	}
}

// TestLogicalRecordsRoundTripJSON pins the wire encoding: Op/Arg are
// omitempty, so physical records serialize exactly as before the logical
// extension (golden logs and cross-version recovery stay byte-stable).
func TestLogicalRecordsRoundTripJSON(t *testing.T) {
	st := stable.NewStore()
	l := New(st)
	db := map[string]string{}
	mustOK(t, l.Begin("t1"))
	mustOK(t, l.LoggedUpdate("t1", db, "x", "1"))
	raw := st.ReadLog(0)
	if got := string(raw[len(raw)-1]); got != `{"k":2,"t":"t1","x":"x","n":"1"}` {
		t.Fatalf("physical record encoding changed: %s", got)
	}
}
