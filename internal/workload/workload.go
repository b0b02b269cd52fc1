// Package workload generates the synthetic transaction workloads the
// benchmarks run: bank transfers (the paper's canonical motivating example
// — "transfer of money from one account to another"), read-mostly mixes,
// and hotspot contention patterns. Generation is deterministic per seed.
package workload

import (
	"fmt"
	"math/rand"

	"speccat/internal/kvstore"
	"speccat/internal/simnet"
	"speccat/internal/txn"
)

// Kind selects a workload shape.
type Kind int

// Workload kinds.
const (
	// Transfers moves amounts between random account pairs (2 reads +
	// 2 writes across up to two sites).
	Transfers Kind = iota + 1
	// ReadMostly issues 90% single-key reads, 10% transfers.
	ReadMostly
	// Hotspot concentrates half of all accesses on one account.
	Hotspot
	// Commutative issues increment-transfers (paired ±delta increments,
	// conserving the total under any interleaving) against zipfian-skewed
	// accounts, plus a read fraction. It is the workload the
	// commutativity-derived lock modes exist for: under Put-style
	// exclusive writes the hot accounts serialize, under IncMode they
	// share.
	Commutative
	// CrossPartition issues wide conserving increment-transactions over
	// Spread distinct zipfian-chosen accounts (plus a read fraction): the
	// first Spread−1 accounts each lose d, the last gains (Spread−1)·d, so
	// the total is invariant under any interleaving. Because the accounts
	// are drawn independently, each transaction deliberately straddles
	// sites — and, within a site, hash shards — making it the stress mix
	// for the multi-shard prepare fan-out and group-committed WAL path.
	CrossPartition
	// Opposed is the adversarial cross-shard lock-order mix: every
	// transaction blind-writes the same two accounts, chosen so both live
	// at one site but hash to different shards, with the two acquisition
	// orders alternating — transaction 1 takes (high shard, low shard),
	// transaction 2 (low, high), and so on. Transaction 0 is a warm-up
	// that writes both keys and so (under strict 2PL) holds both shards'
	// locks until its commit applies. A site that waited for a contended
	// lock would let the opposed pair each grab its first key and wait on
	// the other's — a waits-for cycle spanning two lock managers; the
	// no-wait managers refuse the second request instead, and explore's
	// opposed-workload progress tests pin that every transaction decides.
	// It is deterministic (no random draws).
	Opposed
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Transfers:
		return "transfers"
	case ReadMostly:
		return "read-mostly"
	case Hotspot:
		return "hotspot"
	case Commutative:
		return "commutative"
	case CrossPartition:
		return "cross-partition"
	case Opposed:
		return "opposed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config parameterizes generation.
type Config struct {
	Kind Kind
	// Accounts is the number of bank accounts.
	Accounts int
	// InitialBalance per account.
	InitialBalance int
	// Transactions to generate.
	Transactions int
	// Seed drives the deterministic generator when Rand is nil.
	Seed int64
	// Rand, when non-nil, is the random source the generator draws from
	// instead of constructing its own from Seed. Callers that compose the
	// workload with other randomized machinery (the fault explorer) pass a
	// child of one root-seeded source here, so a whole run replays from a
	// single seed.
	Rand *rand.Rand
	// ZipfTheta skews the Commutative kind's account choice
	// (0 = uniform; around 0.9 is the classic zipfian benchmark skew).
	ZipfTheta float64
	// ReadFraction is the share of single-key reads in the Commutative
	// mix (the rest are increment-transfers). Zero means all transfers.
	ReadFraction float64
	// Spread is how many distinct accounts a CrossPartition transaction
	// touches (default 4; clamped to Accounts).
	Spread int
	// Shards is the per-site hash-partition count the cluster under test
	// runs with. Only the Opposed kind reads it (to pick two same-site
	// accounts hashing to different shards); 0 defaults to 2.
	Shards int
	// WriteFraction is the share of blind absolute-write transactions in
	// the Commutative mix: paired overwrites of two zipfian-chosen
	// accounts with no preceding read. It exists for the underlock
	// ablation — a blind write racing concurrent increments is exactly
	// the lost-update anomaly the comm-underlock rule flags statically
	// and the serializability oracle must catch dynamically. (A
	// read-then-write transfer would not do: the lock manager escalates
	// the mixed read+write hold to exclusive, masking the ablation.)
	WriteFraction float64
}

// Account names account i.
func Account(i int) string { return fmt.Sprintf("acct%03d", i) }

// Generator produces transactions for a cluster.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *Zipf
	// SiteFor maps keys to sites (wired to the cluster's placement).
	SiteFor func(key string) simnet.NodeID
}

// New creates a generator.
func New(cfg Config, siteFor func(string) simnet.NodeID) *Generator {
	if cfg.Accounts == 0 {
		cfg.Accounts = 16
	}
	if cfg.InitialBalance == 0 {
		cfg.InitialBalance = 100
	}
	if cfg.Spread == 0 {
		cfg.Spread = 4
	}
	if cfg.Spread > cfg.Accounts {
		cfg.Spread = cfg.Accounts
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return &Generator{
		cfg: cfg, rng: rng, SiteFor: siteFor,
		zipf: NewZipf(rng, cfg.Accounts, cfg.ZipfTheta),
	}
}

// SetupOps returns the operations that seed every account with its
// initial balance (run as one bootstrap transaction).
func (g *Generator) SetupOps() []txn.Op {
	ops := make([]txn.Op, 0, g.cfg.Accounts)
	for i := 0; i < g.cfg.Accounts; i++ {
		key := Account(i)
		ops = append(ops, txn.Op{
			Site: g.SiteFor(key), Key: key,
			Value: fmt.Sprintf("%d", g.cfg.InitialBalance), IsWrite: true,
		})
	}
	return ops
}

// AccountKeys lists all account keys.
func (g *Generator) AccountKeys() []string {
	keys := make([]string, g.cfg.Accounts)
	for i := range keys {
		keys[i] = Account(i)
	}
	return keys
}

// Total returns the invariant total balance.
func (g *Generator) Total() int { return g.cfg.Accounts * g.cfg.InitialBalance }

// Txn is one generated transaction.
type Txn struct {
	Name string
	Ops  []txn.Op
	// IsTransfer marks balance-moving transactions.
	IsTransfer bool
}

// Generate produces the configured number of transactions.
func (g *Generator) Generate() []Txn {
	out := make([]Txn, 0, g.cfg.Transactions)
	for i := 0; i < g.cfg.Transactions; i++ {
		name := fmt.Sprintf("txn%05d", i)
		switch g.cfg.Kind {
		case ReadMostly:
			if g.rng.Intn(10) != 0 {
				out = append(out, g.readTxn(name))
				continue
			}
			out = append(out, g.transferTxn(name, g.pick(), g.pick()))
		case Hotspot:
			a := g.pick()
			if g.rng.Intn(2) == 0 {
				a = 0 // the hot account
			}
			out = append(out, g.transferTxn(name, a, g.pick()))
		case Commutative:
			u := g.rng.Float64()
			switch {
			case u < g.cfg.ReadFraction:
				out = append(out, g.zipfReadTxn(name))
			case u < g.cfg.ReadFraction+g.cfg.WriteFraction:
				out = append(out, g.blindWriteTxn(name))
			default:
				out = append(out, g.incTransferTxn(name))
			}
		case CrossPartition:
			if g.rng.Float64() < g.cfg.ReadFraction {
				out = append(out, g.zipfReadTxn(name))
				continue
			}
			out = append(out, g.crossPartitionTxn(name))
		case Opposed:
			out = append(out, g.opposedTxn(name, i))
		default:
			out = append(out, g.transferTxn(name, g.pick(), g.pick()))
		}
	}
	return out
}

// crossPartitionTxn drains d from each of Spread−1 zipfian-chosen distinct
// accounts into one sink account — a conserving wide write whose key set
// straddles sites (and shards) by construction of independent draws.
func (g *Generator) crossPartitionTxn(name string) Txn {
	chosen := map[int]bool{}
	var accts []int
	for len(accts) < g.cfg.Spread {
		a := g.zipf.Next()
		for chosen[a] {
			a = (a + 1) % g.cfg.Accounts
		}
		chosen[a] = true
		accts = append(accts, a)
	}
	d := 1 + g.rng.Intn(9)
	t := Txn{Name: name, IsTransfer: true}
	for i, a := range accts {
		k := Account(a)
		delta := fmt.Sprintf("-%d", d)
		if i == len(accts)-1 {
			delta = fmt.Sprintf("%d", d*(len(accts)-1))
		}
		t.Ops = append(t.Ops, txn.Op{Site: g.SiteFor(k), Key: k, Value: delta, Class: txn.ClassInc})
	}
	return t
}

// opposedPair finds the two accounts the Opposed mix contends on: the
// first pair that lives at one site (so one work message carries both
// operations and acquisition order is exactly op order) while hashing to
// different shards (so the two locks live in different managers). Returned
// in ascending shard-index order. The scan is deterministic; failure to
// find a pair (single-site clusters always succeed only if two accounts
// hash apart, true for any realistic account count) falls back to the
// first two accounts.
func (g *Generator) opposedPair() (lo, hi string) {
	n := g.cfg.Shards
	if n < 2 {
		n = 2
	}
	for a := 0; a < g.cfg.Accounts; a++ {
		for b := a + 1; b < g.cfg.Accounts; b++ {
			ka, kb := Account(a), Account(b)
			if g.SiteFor(ka) != g.SiteFor(kb) {
				continue
			}
			sa, sb := kvstore.ShardOf(ka, n), kvstore.ShardOf(kb, n)
			if sa == sb {
				continue
			}
			if sa < sb {
				return ka, kb
			}
			return kb, ka
		}
	}
	return Account(0), Account(1)
}

// opposedTxn builds transaction i of the Opposed mix (see the Kind doc):
// i=0 warms both keys; odd i acquires (hi, lo) — descending shard order —
// and even i (lo, hi).
func (g *Generator) opposedTxn(name string, i int) Txn {
	lo, hi := g.opposedPair()
	first, second := lo, hi
	if i%2 == 1 {
		first, second = hi, lo
	}
	return Txn{
		Name: name,
		Ops: []txn.Op{
			{Site: g.SiteFor(first), Key: first, Value: "0", IsWrite: true},
			{Site: g.SiteFor(second), Key: second, Value: "0", IsWrite: true},
		},
	}
}

func (g *Generator) pick() int { return g.rng.Intn(g.cfg.Accounts) }

func (g *Generator) zipfReadTxn(name string) Txn {
	key := Account(g.zipf.Next())
	return Txn{Name: name, Ops: []txn.Op{{Site: g.SiteFor(key), Key: key}}}
}

// incTransferTxn moves a small amount between two zipfian-chosen
// accounts as a pair of increments (−d on the source, +d on the
// destination). Unlike the absolute-write transfer it needs no mirror
// ledger and conserves the total under every interleaving — increments
// commute, which is exactly the property IncMode's Safeincinc proof
// licenses the lock manager to exploit.
func (g *Generator) incTransferTxn(name string) Txn {
	a := g.zipf.Next()
	b := g.zipf.Next()
	if a == b {
		b = (a + 1) % g.cfg.Accounts
	}
	d := 1 + g.rng.Intn(9)
	ka, kb := Account(a), Account(b)
	return Txn{
		Name:       name,
		IsTransfer: true,
		Ops: []txn.Op{
			{Site: g.SiteFor(ka), Key: ka, Value: fmt.Sprintf("-%d", d), Class: txn.ClassInc},
			{Site: g.SiteFor(kb), Key: kb, Value: fmt.Sprintf("%d", d), Class: txn.ClassInc},
		},
	}
}

// blindWriteTxn overwrites two zipfian-chosen accounts without reading
// them first (an audit-style reset). Callers fill in concrete values; the
// zero value resets the balance.
func (g *Generator) blindWriteTxn(name string) Txn {
	a := g.zipf.Next()
	b := g.zipf.Next()
	if a == b {
		b = (a + 1) % g.cfg.Accounts
	}
	ka, kb := Account(a), Account(b)
	return Txn{
		Name: name,
		Ops: []txn.Op{
			{Site: g.SiteFor(ka), Key: ka, Value: "0", IsWrite: true},
			{Site: g.SiteFor(kb), Key: kb, Value: "0", IsWrite: true},
		},
	}
}

func (g *Generator) readTxn(name string) Txn {
	key := Account(g.pick())
	return Txn{Name: name, Ops: []txn.Op{{Site: g.SiteFor(key), Key: key}}}
}

// transferTxn moves a fixed amount from account a to account b. The
// amounts are encoded in the write values by the *applier* — the workload
// layer cannot know balances in advance, so the benchmark harness applies
// transfers against a mirror ledger and emits concrete values. For
// simplicity in this simulated setting, transfers write precomputed
// balances from a deterministic mirror maintained by Apply.
func (g *Generator) transferTxn(name string, a, b int) Txn {
	if a == b {
		b = (a + 1) % g.cfg.Accounts
	}
	ka, kb := Account(a), Account(b)
	return Txn{
		Name:       name,
		IsTransfer: true,
		Ops: []txn.Op{
			{Site: g.SiteFor(ka), Key: ka},
			{Site: g.SiteFor(kb), Key: kb},
			{Site: g.SiteFor(ka), Key: ka, IsWrite: true},
			{Site: g.SiteFor(kb), Key: kb, IsWrite: true},
		},
	}
}

// Ledger mirrors account balances so sequentially-applied transfers can
// fill in concrete write values.
type Ledger struct {
	balances map[string]int
}

// NewLedger seeds a mirror ledger.
func NewLedger(g *Generator) *Ledger {
	l := &Ledger{balances: map[string]int{}}
	for _, k := range g.AccountKeys() {
		l.balances[k] = g.cfg.InitialBalance
	}
	return l
}

// Fill assigns concrete transfer values: move `amount` from the first
// written account to the second. It returns ops ready for submission and
// an undo function that reverts the mirror if the cluster aborts the
// transaction (keeping mirror and committed state consistent).
func (l *Ledger) Fill(t Txn, amount int) (ops []txn.Op, undo func()) {
	var writes []int
	for i, op := range t.Ops {
		if op.IsWrite {
			writes = append(writes, i)
		}
	}
	if len(writes) != 2 {
		return t.Ops, func() {}
	}
	src := t.Ops[writes[0]].Key
	dst := t.Ops[writes[1]].Key
	oldSrc, oldDst := l.balances[src], l.balances[dst]
	if l.balances[src] < amount {
		amount = l.balances[src]
	}
	l.balances[src] -= amount
	l.balances[dst] += amount
	ops = append([]txn.Op{}, t.Ops...)
	ops[writes[0]].Value = fmt.Sprintf("%d", l.balances[src])
	ops[writes[1]].Value = fmt.Sprintf("%d", l.balances[dst])
	return ops, func() {
		l.balances[src] = oldSrc
		l.balances[dst] = oldDst
	}
}

// Balance reports the mirror balance of a key.
func (l *Ledger) Balance(key string) int { return l.balances[key] }

// Total sums the mirror ledger.
func (l *Ledger) Total() int {
	t := 0
	for _, v := range l.balances {
		t += v
	}
	return t
}

func atoi(s string) int {
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			return 0
		}
		n = n*10 + int(ch-'0')
	}
	return n
}
