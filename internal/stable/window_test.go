package stable

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// fullCopy is the implementation the unsynced window replaced, kept as the
// model it is tested against: a deep copy of everything, taken at each Sync.
type fullCopy struct {
	kv                  map[string][]byte
	log                 [][]byte
	kvWrites, logWrites int
}

func takeFullCopy(s *Store) fullCopy {
	kv, log := s.Snapshot()
	kw, lw := s.Writes()
	return fullCopy{kv, log, kw, lw}
}

// TestWindowMatchesFullCopy drives seeded runs of every mutator, Sync and
// crash against one store and checks that what a crash leaves — contents
// and write counters — is the full copy taken at the last Sync.
func TestWindowMatchesFullCopy(t *testing.T) {
	const seeds, steps = 300, 200
	cutThenAppend := 0 // runs that truncated below the synced prefix, appended, then crashed
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		synced := takeFullCopy(s)
		cut, cutAppended := false, false
		for step := 0; step < steps; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(6))
			switch op := rng.Intn(20); {
			case op < 6:
				s.Put(key, []byte(fmt.Sprintf("v%d.%d", seed, step)))
			case op < 8:
				s.Put(key, nil) // present and empty is not absent
			case op < 10:
				s.Delete(key)
			case op < 14:
				s.Append([]byte(fmt.Sprintf("r%d.%d", seed, step)))
				cutAppended = cutAppended || cut
			case op < 16:
				n := rng.Intn(s.LogLen() + 1)
				if err := s.TruncateLog(n); err != nil {
					t.Fatalf("seed %d step %d: TruncateLog(%d): %v", seed, step, n, err)
				}
				cut = cut || n < len(synced.log)
			case op < 18:
				if err := s.Sync(); err != nil {
					t.Fatalf("seed %d step %d: Sync: %v", seed, step, err)
				}
				synced = takeFullCopy(s)
				cut, cutAppended = false, false
			default:
				s.SetFrozen(true)
				if got := takeFullCopy(s); !reflect.DeepEqual(got, synced) {
					t.Fatalf("seed %d step %d: crash left\n%+v\nthe last Sync covered\n%+v", seed, step, got, synced)
				}
				s.Put("dead", []byte("discarded")) // a crashed site writes nothing
				s.SetFrozen(false)
				if got := takeFullCopy(s); !reflect.DeepEqual(got, synced) {
					t.Fatalf("seed %d step %d: thaw changed the store", seed, step)
				}
				if cutAppended {
					cutThenAppend++
				}
				cut, cutAppended = false, false
			}
		}
	}
	if cutThenAppend == 0 {
		t.Error("no run crashed after truncating below the synced prefix and appending")
	}
}

// TestSyncCostIndependentOfStoreSize pins what replaced the O(store)
// snapshot: an Append and the Sync that covers it allocate the same on a
// 100k-record store as on an empty one.
func TestSyncCostIndependentOfStoreSize(t *testing.T) {
	appendSync := func(s *Store) float64 {
		return testing.AllocsPerRun(100, func() {
			s.Append([]byte("rec"))
			s.Put("k", []byte("v"))
			_ = s.Sync()
		})
	}
	small, big := NewStore(), NewStore()
	for i := 0; i < 100_000; i++ {
		big.Append([]byte("rec"))
		big.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	_ = big.Sync()
	a, b := appendSync(small), appendSync(big)
	// Append's amortised slice growth may round differently; anything that
	// scales with the store would be off by five orders of magnitude.
	if b > a+2 {
		t.Errorf("Append+Put+Sync allocates %.0f on a 100k-record store, %.0f on an empty one", b, a)
	}
}

// TestOpenFileLeavesEmptyWindow: the replay runs through Put and Append
// before the journal is attached; none of it may count as unsynced.
func TestOpenFileLeavesEmptyWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	s.Put("a", []byte("1"))
	s.Append([]byte("rec0"))
	s.Append([]byte("rec1"))
	if err := s.TruncateLog(1); err != nil {
		t.Fatalf("TruncateLog: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if r.undoKV != nil || r.cutLog != nil || r.keepLog != 1 {
		t.Errorf("window after replay: undoKV=%v cutLog=%q keepLog=%d, want empty over a 1-record log", r.undoKV, r.cutLog, r.keepLog)
	}
	if kw, lw := r.Writes(); r.syncedKVWrites != kw || r.syncedLogWrites != lw {
		t.Errorf("synced write counters (%d,%d) trail the replayed ones (%d,%d)", r.syncedKVWrites, r.syncedLogWrites, kw, lw)
	}
}
