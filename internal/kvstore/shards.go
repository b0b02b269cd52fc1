// Hash-sharded partitioning: one site's database split into n independent
// partitions, each with its own lock manager and WAL session over the
// site's single shared stable store. A multi-key transaction touches only
// the shards its keys hash to — its begin records are lazy (written on
// first touch) and its commit/abort fans out over exactly the touched
// set, which is what lets the group-commit batch on the shared stable
// store absorb many shards' records into one fsync. This is the paper's
// composition story applied at runtime: a site-local multi-shard commit
// is a composition of per-shard commit instances over one durable medium.
package kvstore

import (
	"fmt"
	"hash/fnv"
	"sort"

	"speccat/internal/recovery"
	"speccat/internal/stable"
	"speccat/internal/wal"
)

// ShardOf routes key to one of n partitions by FNV-1a hash. Every layer
// that needs the routing (deploy, serving path, benches) must use this
// one function: two routings of the same key disagreeing would send a
// transaction's work to a shard that does not own the data.
func ShardOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Shards is a site's database: n hash partitions over one stable store,
// each a Store. It is the one type the txn execution layer drives — a
// one-shard Shards is the undivided layout, differing from a bare Store
// only in writing a transaction's begin record on first touch.
type Shards struct {
	shards []*Store
	st     *stable.Store
	// touched maps an open transaction to the shard indices holding one of
	// its branches, in first-touch order. A transaction that never touched
	// a shard never pays that shard's begin/commit records.
	touched map[string][]int
}

// OpenShards creates (or reopens after crash) an n-way sharded store on
// one stable store. The site's shared log is recovered once and the
// recovered state dealt out by ShardOf, so each shard holds exactly the
// keys it owns.
func OpenShards(st *stable.Store, n int) (*Shards, error) {
	if n < 1 {
		return nil, fmt.Errorf("kvstore: open shards: n=%d", n)
	}
	state, _, err := recovery.Recover(st)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open shards: %w", err)
	}
	parts := make([]map[string]string, n)
	for i := range parts {
		parts[i] = map[string]string{}
	}
	for k, v := range state {
		parts[ShardOf(k, n)][k] = v
	}
	shards := make([]*Store, n)
	for i := range shards {
		i := i
		shards[i] = newStore(st, parts[i], func(key string) bool { return ShardOf(key, n) == i })
	}
	return &Shards{shards: shards, st: st, touched: map[string][]int{}}, nil
}

// NumShards returns the partition count.
func (s *Shards) NumShards() int { return len(s.shards) }

// Shard exposes partition i (tests and audits).
func (s *Shards) Shard(i int) *Store { return s.shards[i] }

// Begin opens the transaction without touching any shard: per-shard
// branches (and their WAL begin records) are created lazily on first use.
func (s *Shards) Begin(txn string) error {
	if _, open := s.touched[txn]; open {
		return fmt.Errorf("kvstore: %w: %s already open", wal.ErrTxnState, txn)
	}
	s.touched[txn] = []int{}
	return nil
}

// branch routes key to its shard, lazily opening the transaction's branch
// there on first touch.
func (s *Shards) branch(txn, key string) (*Store, error) {
	touched, open := s.touched[txn]
	if !open {
		return nil, fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	i := ShardOf(key, len(s.shards))
	for _, t := range touched {
		if t == i {
			return s.shards[i], nil
		}
	}
	if err := s.shards[i].Begin(txn); err != nil {
		return nil, err
	}
	s.touched[txn] = append(touched, i)
	return s.shards[i], nil
}

// Get reads key in its shard under that shard's read lock.
func (s *Shards) Get(txn, key string) (string, error) {
	sh, err := s.branch(txn, key)
	if err != nil {
		return "", err
	}
	return sh.Get(txn, key)
}

// Put writes key in its shard under that shard's write lock.
func (s *Shards) Put(txn, key, value string) error {
	sh, err := s.branch(txn, key)
	if err != nil {
		return err
	}
	return sh.Put(txn, key, value)
}

// Increment applies a commutative increment in key's shard.
func (s *Shards) Increment(txn, key, delta string) error {
	sh, err := s.branch(txn, key)
	if err != nil {
		return err
	}
	return sh.Increment(txn, key, delta)
}

// Append applies a commutative multiset append in key's shard.
func (s *Shards) Append(txn, key, elem string) error {
	sh, err := s.branch(txn, key)
	if err != nil {
		return err
	}
	return sh.Append(txn, key, elem)
}

// SetInsert applies a commutative set insert in key's shard.
func (s *Shards) SetInsert(txn, key, elem string) error {
	sh, err := s.branch(txn, key)
	if err != nil {
		return err
	}
	return sh.SetInsert(txn, key, elem)
}

// PutUnderlocked routes the E18 underlock ablation to key's shard.
func (s *Shards) PutUnderlocked(txn, key, value string) error {
	sh, err := s.branch(txn, key)
	if err != nil {
		return err
	}
	return sh.PutUnderlocked(txn, key, value)
}

// Commit commits every touched shard's branch. The commit records all
// land in the shared stable log, so under group commit the whole fan-out
// is covered by the next single fsync.
func (s *Shards) Commit(txn string) error {
	touched, open := s.touched[txn]
	if !open {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	for _, i := range touched {
		if err := s.shards[i].Commit(txn); err != nil {
			return err
		}
	}
	delete(s.touched, txn)
	return nil
}

// Abort rolls back every touched shard's branch; each shard undoes only
// its own partition's updates out of the shared log.
func (s *Shards) Abort(txn string) error {
	touched, open := s.touched[txn]
	if !open {
		return fmt.Errorf("%w: %s", ErrNoTxn, txn)
	}
	for _, i := range touched {
		if err := s.shards[i].Abort(txn); err != nil {
			return err
		}
	}
	delete(s.touched, txn)
	return nil
}

// Prepared reports whether the transaction is open (all touched branches
// are logged and lock-holding — the phase-1 "agreed" vote).
func (s *Shards) Prepared(txn string) bool {
	_, open := s.touched[txn]
	return open
}

// Read returns key's committed value from its shard, outside any
// transaction.
func (s *Shards) Read(key string) string {
	return s.shards[ShardOf(key, len(s.shards))].Read(key)
}

// Snapshot merges every shard's committed state (shards partition the
// keyspace, so the union is disjoint).
func (s *Shards) Snapshot() recovery.State {
	out := recovery.State{}
	for _, sh := range s.shards {
		for k, v := range sh.Snapshot() {
			out[k] = v
		}
	}
	return out
}

// Stable exposes the shared underlying stable store.
func (s *Shards) Stable() *stable.Store { return s.st }

// OpenTxns returns the number of open transactions across all shards.
func (s *Shards) OpenTxns() int { return len(s.touched) }

// TouchedShards returns the shard indices holding branches of txn, sorted
// (tests and the prepare fan-out instrumentation).
func (s *Shards) TouchedShards(txn string) []int {
	out := append([]int{}, s.touched[txn]...)
	sort.Ints(out)
	return out
}
