package wal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"speccat/internal/stable"
)

// TestWriteAheadProperty is a randomized property test of the write-ahead
// discipline: across seeded interleavings of Begin/LoggedUpdate/Commit/
// Abort over several concurrent transactions, (1) immediately after every
// LoggedUpdate the *stable* log's last record is the full undo/redo record
// of that update and the volatile map reflects the new value — i.e. the
// record cannot lag the apply; and (2) at random points, recovering from a
// snapshot of the stable log yields exactly the committed transactions'
// effects, regardless of what the volatile map says.
func TestWriteAheadProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := stable.NewStore()
			log := New(store)
			db := map[string]string{}

			// The recovery mirror replays the test's own record of updates
			// exactly as Recover does — committed transactions' updates in
			// log order — so any divergence is the implementation's.
			type update struct{ txn, key, value string }
			var allUpdates []update
			committed := map[string]bool{}
			active := map[string]bool{}
			nextTxn := 0

			checkRecovery := func() {
				t.Helper()
				_, logSnap := store.Snapshot()
				snapStore := stable.NewStore()
				for _, rec := range logSnap {
					snapStore.Append(rec)
				}
				got, _, err := Recover(snapStore)
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				for _, u := range allUpdates {
					if committed[u.txn] {
						want[u.key] = u.value
					}
				}
				if len(got) != len(want) {
					t.Fatalf("recovered %d keys, want %d (committed effects exactly)", len(got), len(want))
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("recovered %s=%q, want %q", k, got[k], v)
					}
				}
			}

			for step := 0; step < 300; step++ {
				var names []string
				for n := range active {
					names = append(names, n)
				}
				sort.Strings(names)
				switch op := rng.Intn(10); {
				case op < 3 || len(names) == 0:
					// Begin a new transaction.
					name := fmt.Sprintf("t%d", nextTxn)
					nextTxn++
					if err := log.Begin(name); err != nil {
						t.Fatal(err)
					}
					active[name] = true
				case op < 8:
					// LoggedUpdate on a random active transaction.
					name := names[rng.Intn(len(names))]
					key := fmt.Sprintf("k%d", rng.Intn(5))
					value := fmt.Sprintf("%s.v%d", name, step)
					old := db[key]
					if err := log.LoggedUpdate(name, db, key, value); err != nil {
						t.Fatal(err)
					}
					// The write-ahead property proper: the stable log's last
					// record already carries the full undo/redo information,
					// and the volatile map reflects the update.
					raw := store.ReadLog(store.LogLen() - 1)
					if len(raw) != 1 {
						t.Fatal("no last log record after LoggedUpdate")
					}
					var rec Record
					if err := json.Unmarshal(raw[0], &rec); err != nil {
						t.Fatal(err)
					}
					want := Record{Kind: RecUpdate, Txn: name, Key: key, Old: old, New: value}
					if rec != want {
						t.Fatalf("last stable record = %+v, want %+v", rec, want)
					}
					if db[key] != value {
						t.Fatalf("volatile db[%s] = %q, want %q", key, db[key], value)
					}
					allUpdates = append(allUpdates, update{name, key, value})
				case op < 9:
					// Commit a random active transaction.
					name := names[rng.Intn(len(names))]
					if err := log.Commit(name); err != nil {
						t.Fatal(err)
					}
					delete(active, name)
					committed[name] = true
				default:
					// Abort a random active transaction and undo its effects.
					name := names[rng.Intn(len(names))]
					if err := log.Abort(name); err != nil {
						t.Fatal(err)
					}
					if err := log.UndoOwnedInto(name, db, nil); err != nil {
						t.Fatal(err)
					}
					delete(active, name)
				}
				if rng.Intn(20) == 0 {
					checkRecovery()
				}
			}
			checkRecovery()
		})
	}
}
