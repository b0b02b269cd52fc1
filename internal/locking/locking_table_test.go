package locking

import (
	"slices"
	"testing"
)

// step is one scripted Acquire in a table case.
type step struct {
	txn  string
	key  string
	mode Mode
	// wantGranted is the expected result: granted, or refused.
	wantGranted bool
}

// runScript drives a fresh manager through the steps, asserting each
// grant or refusal in order.
func runScript(t *testing.T, steps []step) *Manager {
	t.Helper()
	m := NewManager()
	for i, s := range steps {
		granted, err := m.Acquire(s.txn, s.key, s.mode, nil)
		if err != nil {
			t.Fatalf("step %d (%s %s %s): unexpected error %v", i, s.txn, s.mode, s.key, err)
		}
		if granted != s.wantGranted {
			t.Fatalf("step %d (%s %s %s): granted = %v, want %v", i, s.txn, s.mode, s.key, granted, s.wantGranted)
		}
	}
	return m
}

// TestCompatibilityMatrix pins the 2PL mode-compatibility table of
// Section 3.5.1 — shared read counter, exclusive one-bit write lock —
// for both the other-transaction and same-transaction diagonals.
func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		name string
		held Mode // t1's lock on x
		req  Mode // t2's request on x
		// compat is the matrix entry for distinct transactions.
		compat bool
		// selfCompat is the entry when the requester already holds the
		// lock itself (reacquire or upgrade attempt with no co-holders).
		selfCompat bool
	}{
		{"read/read", Read, Read, true, true},
		{"read/write", Read, Write, false, true}, // self case is the sole-reader upgrade
		{"write/read", Write, Read, false, true},
		{"write/write", Write, Write, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := runScript(t, []step{
				{txn: "t1", key: "x", mode: tc.held, wantGranted: true},
				{txn: "t2", key: "x", mode: tc.req, wantGranted: tc.compat},
			})
			if got := m.Holds("t2", "x"); (got >= tc.req) != tc.compat {
				t.Errorf("Holds(t2, x) = %v after grant=%v", got, tc.compat)
			}
			if got := m.Holders("x"); !tc.compat && !slices.Equal(got, []string{"t1"}) {
				t.Errorf("Holders(x) = %v after a refusal, want t1 alone", got)
			}

			runScript(t, []step{
				{txn: "t1", key: "x", mode: tc.held, wantGranted: true},
				{txn: "t1", key: "x", mode: tc.req, wantGranted: tc.selfCompat},
			})
		})
	}
}

// TestUpgradeTable pins upgrades to write: granted when the requester is
// the sole holder, refused behind a co-holder — so the classic dueling
// upgrade, read/read or inc/inc, refuses both and cannot deadlock.
func TestUpgradeTable(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
		// wantHolds checks final (txn, key) → mode expectations.
		wantHolds map[string]Mode
	}{
		{
			name: "sole reader upgrades in place",
			steps: []step{
				{txn: "t1", key: "x", mode: Read, wantGranted: true},
				{txn: "t1", key: "x", mode: Write, wantGranted: true},
			},
			wantHolds: map[string]Mode{"t1": Write},
		},
		{
			name: "upgrade blocks behind a co-reader",
			steps: []step{
				{txn: "t1", key: "x", mode: Read, wantGranted: true},
				{txn: "t2", key: "x", mode: Read, wantGranted: true},
				{txn: "t1", key: "x", mode: Write, wantGranted: false},
			},
			wantHolds: map[string]Mode{"t1": Read, "t2": Read},
		},
		{
			name: "dueling upgrades both refused",
			steps: []step{
				{txn: "t1", key: "x", mode: Read, wantGranted: true},
				{txn: "t2", key: "x", mode: Read, wantGranted: true},
				{txn: "t1", key: "x", mode: Write, wantGranted: false},
				{txn: "t2", key: "x", mode: Write, wantGranted: false},
			},
			wantHolds: map[string]Mode{"t1": Read, "t2": Read},
		},
		{
			name: "dueling increment upgrades both refused",
			steps: []step{
				{txn: "t1", key: "x", mode: IncMode, wantGranted: true},
				{txn: "t2", key: "x", mode: IncMode, wantGranted: true},
				{txn: "t1", key: "x", mode: Write, wantGranted: false},
				{txn: "t2", key: "x", mode: Write, wantGranted: false},
			},
			wantHolds: map[string]Mode{"t1": IncMode, "t2": IncMode},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := runScript(t, tc.steps)
			for txn, mode := range tc.wantHolds {
				if got := m.Holds(txn, "x"); got != mode {
					t.Errorf("Holds(%s, x) = %v, want %v", txn, got, mode)
				}
			}
		})
	}
}

// TestConflictDetectionTable pins no-wait conflict detection over the
// deadlock topologies of the protocol — two-party, three-party, a reader
// in the cycle, and the acyclic chain: each request that would wait is
// refused at once, so no waits-for edge and no cycle forms, and every key
// stays with exactly the transactions granted it.
func TestConflictDetectionTable(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "two-party cycle",
			steps: []step{
				{txn: "t1", key: "x", mode: Write, wantGranted: true},
				{txn: "t2", key: "y", mode: Write, wantGranted: true},
				{txn: "t1", key: "y", mode: Write, wantGranted: false},
				{txn: "t2", key: "x", mode: Write, wantGranted: false},
			},
		},
		{
			name: "three-party cycle",
			steps: []step{
				{txn: "t1", key: "x", mode: Write, wantGranted: true},
				{txn: "t2", key: "y", mode: Write, wantGranted: true},
				{txn: "t3", key: "z", mode: Write, wantGranted: true},
				{txn: "t1", key: "y", mode: Write, wantGranted: false},
				{txn: "t2", key: "z", mode: Write, wantGranted: false},
				{txn: "t3", key: "x", mode: Write, wantGranted: false},
			},
		},
		{
			name: "acyclic chain is not a deadlock",
			steps: []step{
				{txn: "t1", key: "x", mode: Write, wantGranted: true},
				{txn: "t2", key: "y", mode: Write, wantGranted: true},
				{txn: "t3", key: "y", mode: Write, wantGranted: false},
				{txn: "t2", key: "x", mode: Write, wantGranted: false},
			},
		},
		{
			name: "reader participates in the cycle",
			steps: []step{
				{txn: "t1", key: "x", mode: Read, wantGranted: true},
				{txn: "t2", key: "y", mode: Write, wantGranted: true},
				{txn: "t1", key: "y", mode: Read, wantGranted: false},
				{txn: "t2", key: "x", mode: Write, wantGranted: false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := runScript(t, tc.steps)
			granted := map[string][]string{}
			for _, s := range tc.steps {
				if s.wantGranted {
					granted[s.key] = append(granted[s.key], s.txn)
				}
			}
			for key, want := range granted {
				if got := m.Holders(key); !slices.Equal(got, want) {
					t.Errorf("Holders(%s) = %v, want %v", key, got, want)
				}
			}
		})
	}
}
