package locking

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// fullScanReleaseAll is ReleaseAll by a scan of every object the manager
// has rather than of txn's own held set: it drops txn from each object's
// holders, forgets the objects left idle, then forgets txn's held set. It
// is the reference the indexed ReleaseAll must reproduce.
func fullScanReleaseAll(m *Manager, txn string) {
	for key, holders := range m.objects {
		delete(holders, txn)
		if len(holders) == 0 {
			delete(m.objects, key)
		}
	}
	delete(m.held, txn)
}

// historyOp is one step of a random lock history.
type historyOp struct {
	kind     byte // 'a' Acquire, 'r' Release, 'R' ReleaseAll
	txn, key string
	mode     Mode
}

var (
	historyTxns = []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	historyKeys = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
)

// randomHistory is a seeded mix of Acquire in all five modes, early
// Release (held or not), ReleaseAll and upgrades: a third of the acquires
// name a key the transaction asked for earlier, in a random mode. Every
// history opens with a mixed-hold upgrade: t0 holds k0 in Read beside
// reader t1, is refused an IncMode upgrade, and releases everything.
func randomHistory(seed int64, steps int) []historyOp {
	r := rand.New(rand.NewSource(seed))
	h := []historyOp{
		{kind: 'a', txn: "t0", key: "k0", mode: Read},
		{kind: 'a', txn: "t1", key: "k0", mode: Read},
		{kind: 'a', txn: "t0", key: "k0", mode: IncMode},
		{kind: 'R', txn: "t0"},
	}
	asked := map[string][]string{} // keys each transaction asked for since its last ReleaseAll
	for len(h) < steps {
		op := historyOp{
			txn:  historyTxns[r.Intn(len(historyTxns))],
			key:  historyKeys[r.Intn(len(historyKeys))],
			mode: Modes()[r.Intn(len(Modes()))],
		}
		switch n := r.Intn(20); {
		case n < 13:
			op.kind = 'a'
			if prev := asked[op.txn]; len(prev) > 0 && r.Intn(3) == 0 {
				op.key = prev[r.Intn(len(prev))]
			}
			asked[op.txn] = append(asked[op.txn], op.key)
		case n < 16:
			op.kind = 'r'
		default:
			op.kind = 'R'
			delete(asked, op.txn)
		}
		h = append(h, op)
	}
	return h
}

// replay drives m through h, releasing with release, and returns after
// every step its result, each key's holders and per-transaction modes, and
// how many objects the manager keeps.
func replay(m *Manager, h []historyOp, release func(*Manager, string)) []string {
	var seen []string
	for _, op := range h {
		var state string
		switch op.kind {
		case 'a':
			ok, err := m.Acquire(op.txn, op.key, op.mode, nil)
			state = fmt.Sprint(ok, err)
		case 'r':
			state = fmt.Sprint(m.Release(op.txn, op.key))
		case 'R':
			release(m, op.txn)
		}
		for _, k := range historyKeys {
			state += fmt.Sprintf(" %s:%v/", k, m.Holders(k))
			for _, t := range historyTxns {
				state += strconv.Itoa(int(m.Holds(t, k)))
			}
		}
		seen = append(seen, fmt.Sprintf("%s objects=%d", state, len(m.objects)))
	}
	return seen
}

// TestReleaseAllMatchesFullScan: over 300 seeded histories the indexed
// ReleaseAll leaves the same grants, refusals, holders, modes and object
// count after every step as the full scan over every object the manager
// has.
func TestReleaseAllMatchesFullScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		h := randomHistory(seed, 200)
		want := replay(NewManager(), h, fullScanReleaseAll)
		got := replay(NewManager(), h, (*Manager).ReleaseAll)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d (%c %s %s %s):\n got  %s\n want %s",
					seed, i, h[i].kind, h[i].txn, h[i].key, h[i].mode, got[i], want[i])
			}
		}
	}
}

// TestReleasingEveryTransactionEmptiesManager: whatever mix of grants,
// upgrades, refusals, Release errors and ReleaseAlls came first, once every
// transaction has released everything the manager remembers nothing: no
// object, no held set.
func TestReleasingEveryTransactionEmptiesManager(t *testing.T) {
	var refused, notHeld int
	for seed := int64(0); seed < 300; seed++ {
		m := NewManager()
		for _, op := range randomHistory(seed, 200) {
			switch op.kind {
			case 'a':
				if granted, _ := m.Acquire(op.txn, op.key, op.mode, nil); !granted {
					refused++
				}
			case 'r':
				if errors.Is(m.Release(op.txn, op.key), ErrNotHeld) {
					notHeld++
				}
			case 'R':
				m.ReleaseAll(op.txn)
			}
		}
		for _, txn := range historyTxns {
			m.ReleaseAll(txn)
		}
		if len(m.objects) != 0 || len(m.held) != 0 {
			t.Fatalf("seed %d: %d objects, %d held sets left", seed, len(m.objects), len(m.held))
		}
	}
	if refused == 0 || notHeld == 0 {
		t.Fatalf("histories exercised %d refusals and %d Release errors, want both", refused, notHeld)
	}
}

// seenKeys returns a manager that has granted and released n distinct
// keys.
func seenKeys(n int) *Manager {
	m := NewManager()
	for i := 0; i < n; i++ {
		mustAcquire(m, "old", "h"+strconv.Itoa(i), Write)
	}
	m.ReleaseAll("old")
	return m
}

// TestReleaseAllAllocsFlatInHistory: one transaction's two acquires and
// ReleaseAll allocate the same, in count and in bytes, on a manager that
// has seen 100 keys as on one that has seen 100,000. The full scan made
// the same number of allocations on both, but its sorted copy of every
// key the manager had seen grew with the history.
func TestReleaseAllAllocsFlatInHistory(t *testing.T) {
	const runs = 100
	cost := func(m *Manager) (allocs float64, bytes uint64) {
		txn := func() {
			mustAcquire(m, "t", "x", Write)
			mustAcquire(m, "t", "y", Write)
			m.ReleaseAll("t")
		}
		allocs = testing.AllocsPerRun(runs, txn)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			txn()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallN, smallB := cost(seenKeys(100))
	largeN, largeB := cost(seenKeys(100_000))
	if smallN != largeN || smallB != largeB {
		t.Fatalf("per acquire×2 + ReleaseAll: %v allocs, %d B after 100 keys; %v allocs, %d B after 100,000",
			smallN, smallB, largeN, largeB)
	}
}

// BenchmarkReleaseAll times two acquires and the ReleaseAll that ends the
// transaction on a manager that has already locked and released that many
// distinct keys; 169 is the key count bench/'s locking layer cycles
// through on one site.
func BenchmarkReleaseAll(b *testing.B) {
	for _, n := range []int{169, 10_000} {
		b.Run("keys="+strconv.Itoa(n), func(b *testing.B) {
			m := seenKeys(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustAcquire(m, "t", "x", Write)
				mustAcquire(m, "t", "y", Write)
				m.ReleaseAll("t")
			}
		})
	}
}
