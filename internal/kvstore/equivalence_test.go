package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"speccat/internal/recovery"
	"speccat/internal/stable"
	"speccat/internal/wal"
)

// database is the surface a site drives; Store is the reference a
// one-shard Shards is compared against.
type database interface {
	Begin(txn string) error
	Get(txn, key string) (string, error)
	Put(txn, key, value string) error
	Increment(txn, key, delta string) error
	Append(txn, key, elem string) error
	SetInsert(txn, key, elem string) error
	Commit(txn string) error
	Abort(txn string) error
	Prepared(txn string) bool
	Snapshot() recovery.State
	OpenTxns() int
}

// TestOneShardMatchesStore is the equivalence every site layout rests on:
// a one-shard Shards behaves exactly like the bare Store it wraps. One
// seeded stream — begins, reads, writes, the three commutative ops, lock
// conflicts, aborts, commits, then a crash with a branch in flight and a
// recovery reopen — is driven into both; every returned value and error,
// the snapshot, and the stable store's kv and log bytes must agree before
// and after the reopen. Each begin is followed at once by the
// transaction's first operation, as txn.Site.vote does: Shards
// writes the begin record on first touch, so only then is the log order
// the same.
func TestOneShardMatchesStore(t *testing.T) {
	st1, st2 := stable.NewStore(), stable.NewStore()
	ref, err := Open(st1)
	mustOK(t, err)
	one, err := OpenShards(st2, 1)
	mustOK(t, err)

	rng := rand.New(rand.NewSource(13))
	var open []string
	next, conflicts := 0, 0

	// both applies one step to the two databases and requires identical
	// results; it reports the (shared) error.
	both := func(what string, step func(db database) (string, error)) error {
		t.Helper()
		v1, e1 := step(ref)
		v2, e2 := step(one)
		if v1 != v2 || fmt.Sprint(e1) != fmt.Sprint(e2) {
			t.Fatalf("%s: Store returned (%q, %v), one-shard Shards (%q, %v)", what, v1, e1, v2, e2)
		}
		return e1
	}
	same := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(ref.Snapshot(), one.Snapshot()) {
			t.Fatalf("%s: snapshots differ:\n store  %v\n shards %v", when, ref.Snapshot(), one.Snapshot())
		}
		if ref.OpenTxns() != one.OpenTxns() {
			t.Fatalf("%s: open transactions %d vs %d", when, ref.OpenTxns(), one.OpenTxns())
		}
		kv1, log1 := st1.Snapshot()
		kv2, log2 := st2.Snapshot()
		if !reflect.DeepEqual(kv1, kv2) {
			t.Fatalf("%s: stable kv differs", when)
		}
		if !reflect.DeepEqual(log1, log2) {
			t.Fatalf("%s: stable logs differ (%d vs %d records)", when, len(log1), len(log2))
		}
	}
	// op runs one random data operation of txn; a failed one (a lock
	// conflict) aborts the branch.
	op := func(txn string) {
		t.Helper()
		k, arg := rng.Intn(3), fmt.Sprint(rng.Intn(9)+1)
		var err error
		switch rng.Intn(5) {
		case 0:
			err = both("get", func(db database) (string, error) { return db.Get(txn, fmt.Sprint("n", k)) })
		case 1:
			err = both("put", func(db database) (string, error) { return "", db.Put(txn, fmt.Sprint("n", k), arg) })
		case 2:
			err = both("inc", func(db database) (string, error) { return "", db.Increment(txn, fmt.Sprint("n", k), arg) })
		case 3:
			err = both("append", func(db database) (string, error) { return "", db.Append(txn, fmt.Sprint("l", k), arg) })
		case 4:
			err = both("setins", func(db database) (string, error) { return "", db.SetInsert(txn, fmt.Sprint("s", k), arg) })
		}
		if err == nil {
			return
		}
		if errors.Is(err, ErrConflict) {
			conflicts++
		}
		finish(t, both, &open, txn, false)
	}
	drive := func(steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case len(open) == 0 || (r < 2 && len(open) < 3):
				txn := fmt.Sprintf("t%03d", next)
				next++
				mustOK(t, both("begin", func(db database) (string, error) { return "", db.Begin(txn) }))
				open = append(open, txn)
				op(txn)
			case r < 7:
				op(open[rng.Intn(len(open))])
			default:
				finish(t, both, &open, open[rng.Intn(len(open))], r < 9)
			}
			for _, txn := range open {
				if ref.Prepared(txn) != one.Prepared(txn) {
					t.Fatalf("Prepared(%s) differs", txn)
				}
			}
		}
	}

	drive(400)
	if conflicts == 0 {
		t.Fatal("the stream never hit a lock conflict")
	}
	// Unknown and duplicate transactions fail identically too.
	if err := both("put outside a txn", func(db database) (string, error) { return "", db.Put("ghost", "n0", "1") }); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("put outside a transaction: %v", err)
	}
	for len(open) == 0 {
		drive(1)
	}
	if err := both("double begin", func(db database) (string, error) { return "", db.Begin(open[0]) }); err == nil {
		t.Fatal("double begin accepted")
	}
	same("before the crash")

	// Crash with the open branches in flight: recovery settles them as
	// aborted on the log, then reopens each layout from stable storage.
	for _, st := range []*stable.Store{st1, st2} {
		active, err := wal.Active(st)
		mustOK(t, err)
		if len(active) != len(open) {
			t.Fatalf("log has %d active transactions, want %d", len(active), len(open))
		}
		for _, txn := range active {
			mustOK(t, wal.Resolve(st, txn, false))
		}
	}
	ref, err = Open(st1)
	mustOK(t, err)
	one, err = OpenShards(st2, 1)
	mustOK(t, err)
	open = nil
	same("after the reopen")
	drive(100)
	same("after the post-recovery stream")
}

// finish commits or aborts txn on both databases and drops it from open.
func finish(t *testing.T, both func(string, func(database) (string, error)) error, open *[]string, txn string, commit bool) {
	t.Helper()
	if commit {
		mustOK(t, both("commit", func(db database) (string, error) { return "", db.Commit(txn) }))
	} else {
		mustOK(t, both("abort", func(db database) (string, error) { return "", db.Abort(txn) }))
	}
	for i, o := range *open {
		if o == txn {
			*open = append((*open)[:i], (*open)[i+1:]...)
			return
		}
	}
}

// TestFourShardsReopenMatchesOpen pins OpenShards' single recovery pass:
// the shared log is replayed once and the recovered state dealt out by
// ShardOf, so after a crash with branches in flight (settled as aborted
// on the log) every reopened shard holds only keys it owns and their
// union is exactly what Open recovers from the same stable store.
func TestFourShardsReopenMatchesOpen(t *testing.T) {
	const n = 4
	st := stable.NewStore()
	db, err := OpenShards(st, n)
	mustOK(t, err)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		txn := fmt.Sprintf("t%02d", i)
		mustOK(t, db.Begin(txn))
		inFlight := i >= 57 // the last three crash mid-transaction, on keys of their own
		for j := 0; j < 3; j++ {
			k := rng.Intn(24)
			if inFlight {
				k = 100 + 3*i + j
			}
			if rng.Intn(2) == 0 {
				mustOK(t, db.Put(txn, fmt.Sprint("k", k), fmt.Sprint(i)))
			} else {
				mustOK(t, db.Increment(txn, fmt.Sprint("c", k), fmt.Sprint(j+1)))
			}
		}
		switch {
		case inFlight:
		case i%5 == 4:
			mustOK(t, db.Abort(txn))
		default:
			mustOK(t, db.Commit(txn))
		}
	}
	active, err := wal.Active(st)
	mustOK(t, err)
	if len(active) != 3 {
		t.Fatalf("log has %d active transactions, want 3", len(active))
	}
	for _, txn := range active {
		mustOK(t, wal.Resolve(st, txn, false))
	}

	re, err := OpenShards(st, n)
	mustOK(t, err)
	whole, err := Open(st)
	mustOK(t, err)
	union, populated := recovery.State{}, 0
	for i := 0; i < n; i++ {
		snap := re.Shard(i).Snapshot()
		if len(snap) > 0 {
			populated++
		}
		for k, v := range snap {
			if ShardOf(k, n) != i {
				t.Errorf("shard %d recovered %q, which shard %d owns", i, k, ShardOf(k, n))
			}
			union[k] = v
		}
	}
	if populated < 2 {
		t.Fatalf("only %d of %d shards recovered any key", populated, n)
	}
	if !reflect.DeepEqual(union, whole.Snapshot()) {
		t.Fatalf("union of shard snapshots differs from Open's:\n shards %v\n open   %v", union, whole.Snapshot())
	}
}
