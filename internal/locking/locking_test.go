package locking

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSharedReads(t *testing.T) {
	m := NewManager()
	for _, txn := range []string{"a", "b", "c"} {
		ok, err := m.Acquire(txn, "x", Read, nil)
		if err != nil || !ok {
			t.Fatalf("read lock for %s: ok=%v err=%v", txn, ok, err)
		}
	}
	if got := len(m.Holders("x")); got != 3 {
		t.Fatalf("holders = %d", got)
	}
}

func TestWriteExcludesAll(t *testing.T) {
	m := NewManager()
	ok, err := m.Acquire("a", "x", Write, nil)
	if err != nil || !ok {
		t.Fatal(err)
	}
	ok, err = m.Acquire("b", "x", Read, nil)
	if err != nil || ok {
		t.Fatalf("read granted while write-locked: %v", err)
	}
	ok, err = m.Acquire("c", "x", Write, nil)
	if err != nil || ok {
		t.Fatalf("second write granted: %v", err)
	}
	if got := m.Holders("x"); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("holders = %v, want the writer alone", got)
	}
}

func TestNoWriteWhileRead(t *testing.T) {
	m := NewManager()
	if ok, _ := m.Acquire("a", "x", Read, nil); !ok {
		t.Fatal("read not granted")
	}
	if ok, _ := m.Acquire("b", "x", Write, nil); ok {
		t.Fatal("write granted while read-locked")
	}
}

func TestReacquireIsIdempotent(t *testing.T) {
	m := NewManager()
	if ok, _ := m.Acquire("a", "x", Write, nil); !ok {
		t.Fatal("first acquire failed")
	}
	if ok, _ := m.Acquire("a", "x", Write, nil); !ok {
		t.Fatal("reacquire failed")
	}
	if ok, _ := m.Acquire("a", "x", Read, nil); !ok {
		t.Fatal("weaker reacquire failed")
	}
}

func TestUpgradeReadToWrite(t *testing.T) {
	m := NewManager()
	if ok, _ := m.Acquire("a", "x", Read, nil); !ok {
		t.Fatal("read failed")
	}
	// Sole reader upgrades.
	if ok, err := m.Acquire("a", "x", Write, nil); err != nil || !ok {
		t.Fatalf("upgrade failed: %v", err)
	}
	if m.Holds("a", "x") != Write {
		t.Fatal("not write after upgrade")
	}
}

// TestDeadlockDetected: the two-party cycle a→y→b→x→a cannot form. a's
// request for y is refused rather than left waiting, so b's request for x
// is refused too, no error is raised, and each key stays with its first
// holder. Once a aborts, b's retry of x is granted.
func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	mustAcquire(m, "a", "x", Write)
	mustAcquire(m, "b", "y", Write)
	if ok, err := m.Acquire("a", "y", Write, nil); ok || err != nil {
		t.Fatalf("a on y: granted=%v err=%v, want refused", ok, err)
	}
	if ok, err := m.Acquire("b", "x", Write, nil); ok || err != nil {
		t.Fatalf("b on x: granted=%v err=%v, want refused", ok, err)
	}
	for key, want := range map[string]string{"x": "a", "y": "b"} {
		if got := m.Holders(key); !slices.Equal(got, []string{want}) {
			t.Fatalf("Holders(%s) = %v, want [%s]", key, got, want)
		}
	}
	m.ReleaseAll("a")
	if ok, err := m.Acquire("b", "x", Write, nil); !ok || err != nil {
		t.Fatalf("b retries x after a aborted: granted=%v err=%v, want granted", ok, err)
	}
}

// TestDeadlockThreeWay: the three-party cycle a→k1→b→k2→c→k0→a cannot
// form. Every request that would wait is refused, nobody holds more than
// its first key, and once one party aborts the cycle's next party
// completes on retry.
func TestDeadlockThreeWay(t *testing.T) {
	m := NewManager()
	txns := []string{"a", "b", "c"}
	for i, txn := range txns {
		mustAcquire(m, txn, fmt.Sprintf("k%d", i), Write)
	}
	for i, txn := range txns {
		key := fmt.Sprintf("k%d", (i+1)%len(txns))
		if ok, err := m.Acquire(txn, key, Write, nil); ok || err != nil {
			t.Fatalf("%s on %s: granted=%v err=%v, want refused", txn, key, ok, err)
		}
		if got := m.Holds(txn, key); got != 0 {
			t.Fatalf("%s holds %s in %v after refusal, want nothing", txn, key, got)
		}
	}
	m.ReleaseAll("b")
	if ok, err := m.Acquire("a", "k1", Write, nil); !ok || err != nil {
		t.Fatalf("a retries k1 after b aborted: granted=%v err=%v, want granted", ok, err)
	}
}

// TestRefusedAcquireLeavesNoTrace: a refused request changes nothing. t2's
// write behind t1's read is refused; t3's read is then granted at once, as
// no request stands before it; releasing t1 grants t2 nothing, as nothing
// was queued; and once every transaction has released, the manager holds
// no object.
func TestRefusedAcquireLeavesNoTrace(t *testing.T) {
	m := NewManager()
	mustAcquire(m, "t1", "k", Read)
	fired := false
	if ok, err := m.Acquire("t2", "k", Write, func() { fired = true }); ok || err != nil {
		t.Fatalf("t2 write behind t1's read: granted=%v err=%v, want refused", ok, err)
	}
	if ok, err := m.Acquire("t3", "k", Read, nil); !ok || err != nil {
		t.Fatalf("t3 read after t2's refusal: granted=%v err=%v, want granted at once", ok, err)
	}
	m.ReleaseAll("t1")
	if got := m.Holds("t2", "k"); got != 0 || fired {
		t.Fatalf("t2 holds %v (callback fired: %v) after t1 released, want nothing", got, fired)
	}
	for _, txn := range []string{"t2", "t3"} {
		m.ReleaseAll(txn)
	}
	if len(m.objects) != 0 || len(m.held) != 0 {
		t.Fatalf("%d objects, %d held sets left after every transaction released", len(m.objects), len(m.held))
	}
}

func mustAcquire(m *Manager, txn, key string, mode Mode) {
	ok, err := m.Acquire(txn, key, mode, nil)
	if !ok || err != nil {
		panic("acquire " + txn + "/" + key + " not immediate")
	}
}

func TestReleaseNotHeld(t *testing.T) {
	m := NewManager()
	if err := m.Release("ghost", "x"); !errors.Is(err, ErrNotHeld) {
		t.Fatal(err)
	}
}

// op is one step of a random schedule for the serializability property.
type op struct {
	txn  string
	key  string
	mode Mode
}

// TestConflictSerializabilityProperty runs random transactions under
// strict 2PL and verifies the committed schedule's conflict graph is
// acyclic — the textbook criterion for serializability that the thesis's
// Serialize property abstracts.
func TestConflictSerializabilityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewManager()
		nTxn := 2 + r.Intn(4)
		keys := []string{"x", "y", "z"}

		// Each transaction is a list of (key, mode) accesses. Execute them
		// round-robin; a refused access aborts its transaction (no-wait):
		// the transaction releases its locks and its accesses are discarded.
		type txnState struct {
			name string
			ops  []op
			pc   int
			over bool
		}
		var txns []*txnState
		for i := 0; i < nTxn; i++ {
			ts := &txnState{name: fmt.Sprintf("t%d", i)}
			for j := 0; j <= r.Intn(4); j++ {
				mode := Read
				if r.Intn(2) == 0 {
					mode = Write
				}
				ts.ops = append(ts.ops, op{txn: ts.name, key: keys[r.Intn(len(keys))], mode: mode})
			}
			txns = append(txns, ts)
		}

		var schedule []op // executed (granted) accesses in order
		for live := len(txns); live > 0; {
			for _, ts := range txns {
				if ts.over {
					continue
				}
				if ts.pc == len(ts.ops) {
					ts.over = true
					live--
					m.ReleaseAll(ts.name)
					continue
				}
				cur := ts.ops[ts.pc]
				if granted, _ := m.Acquire(cur.txn, cur.key, cur.mode, nil); !granted {
					ts.over = true
					live--
					m.ReleaseAll(ts.name)
					schedule = slices.DeleteFunc(schedule, func(o op) bool { return o.txn == ts.name })
					continue
				}
				schedule = append(schedule, cur)
				ts.pc++
			}
		}

		return conflictGraphAcyclic(schedule)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// conflictGraphAcyclic builds edges t1→t2 for conflicting accesses where
// t1 precedes t2 in the schedule, then topologically checks acyclicity.
func conflictGraphAcyclic(schedule []op) bool {
	edges := map[string]map[string]bool{}
	for i := 0; i < len(schedule); i++ {
		for j := i + 1; j < len(schedule); j++ {
			a, b := schedule[i], schedule[j]
			if a.txn == b.txn || a.key != b.key {
				continue
			}
			if a.mode == Write || b.mode == Write {
				if edges[a.txn] == nil {
					edges[a.txn] = map[string]bool{}
				}
				edges[a.txn][b.txn] = true
			}
		}
	}
	// DFS cycle check.
	color := map[string]int{}
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = 1
		for next := range edges[n] {
			switch color[next] {
			case 1:
				return false
			case 0:
				if !visit(next) {
					return false
				}
			}
		}
		color[n] = 2
		return true
	}
	for n := range edges {
		if color[n] == 0 && !visit(n) {
			return false
		}
	}
	return true
}
