package main

import (
	"fmt"
	"strconv"
	"strings"
)

// The serving stream. One generator per client connection produces
// independent distributed transactions over that connection's private
// accounts. Because accounts are private and a connection is sequential,
// the generator keeps an exact model of every balance: each READ value,
// the final DUMP of every cohort and the conserved sum are all checked
// against it.

// rng is splitmix64: small, seedable, and owned by the benchmark so the
// generated stream cannot change under it.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// streamSeed derives one connection's seed from the run seed.
func streamSeed(seed int64, conn int) uint64 {
	r := rng{s: uint64(seed)*0x9e3779b97f4a7c15 + uint64(conn) + 1}
	return r.next()
}

type txnKind int

const (
	kindRead txnKind = iota
	kindWrite
	kindInc
	numKinds
)

func (k txnKind) String() string { return [...]string{"read", "write", "inc"}[k] }

const (
	accountsPerConn = 1024
	initialBalance  = 1000
	transferAmount  = 10
	// The mix: 40 % read, 40 % write, 20 % inc.
	shareRead  = 0.4
	shareWrite = 0.4
)

// genTxn is one generated transaction: two operations on two distinct
// accounts of one connection.
type genTxn struct {
	name     string
	kind     txnKind
	from, to int // account indices
	// newFrom/newTo are the balances the model holds once the transaction
	// commits (unchanged for a read).
	newFrom, newTo int64
}

// stream generates one connection's transactions and holds its model.
type stream struct {
	conn    int
	prefix  string
	rnd     rng
	perm    []int
	next    int
	balance []int64
	keys    []string
}

func newStream(seed int64, conn int, prefix string) *stream {
	s := &stream{
		conn: conn, prefix: prefix,
		rnd:     rng{s: streamSeed(seed, conn)},
		perm:    make([]int, accountsPerConn),
		balance: make([]int64, accountsPerConn),
		keys:    make([]string, accountsPerConn),
	}
	for i := range s.perm {
		s.perm[i] = i
		s.balance[i] = initialBalance
		s.keys[i] = fmt.Sprintf("c%d.a%d", conn, i)
	}
	for i := len(s.perm) - 1; i > 0; i-- {
		j := s.rnd.intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	return s
}

// gen produces the next transaction. Accounts are walked along a seeded
// permutation from two offsets half the set apart, so an account is
// reused only after accountsPerConn/2 transactions: the stream is
// conflict-free by construction and any abort the servers report is a
// spurious one.
func (s *stream) gen() genTxn {
	i := s.next
	s.next++
	n := len(s.perm)
	t := genTxn{
		name: s.prefix + "c" + strconv.Itoa(s.conn) + "t" + strconv.Itoa(i),
		from: s.perm[i%n],
		to:   s.perm[(i+n/2)%n],
	}
	switch u := s.rnd.float(); {
	case u < shareRead:
		t.kind = kindRead
	case u < shareRead+shareWrite:
		t.kind = kindWrite
	default:
		t.kind = kindInc
	}
	t.newFrom, t.newTo = s.balance[t.from], s.balance[t.to]
	if t.kind != kindRead {
		t.newFrom -= transferAmount
		t.newTo += transferAmount
	}
	return t
}

// commit folds a committed transaction into the model.
func (s *stream) commit(t genTxn) {
	s.balance[t.from], s.balance[t.to] = t.newFrom, t.newTo
}

// op is one operation of a transaction in tpcserve's client vocabulary.
type op struct {
	verb     string // READ, WRITE or INC
	key, arg string
}

// call is one transaction as a port executes it: a name and its operations.
type call struct {
	name string
	ops  []op
}

// call renders a generated transaction. A write carries the absolute new
// balances computed from the model; an inc carries the two deltas.
func (s *stream) call(t genTxn) call {
	kf, kt := s.keys[t.from], s.keys[t.to]
	c := call{name: t.name}
	switch t.kind {
	case kindRead:
		c.ops = []op{{"READ", kf, ""}, {"READ", kt, ""}}
	case kindWrite:
		c.ops = []op{{"WRITE", kf, strconv.FormatInt(t.newFrom, 10)}, {"WRITE", kt, strconv.FormatInt(t.newTo, 10)}}
	case kindInc:
		c.ops = []op{{"INC", kf, "-" + strconv.Itoa(transferAmount)}, {"INC", kt, strconv.Itoa(transferAmount)}}
	}
	return c
}

// lines renders a call as the command lines of tpcserve's client port:
// BEGIN, the operations, COMMIT.
func (c call) lines() string {
	var b strings.Builder
	b.WriteString("BEGIN " + c.name + "\n")
	for _, o := range c.ops {
		b.WriteString(o.verb + " " + c.name + " " + o.key)
		if o.arg != "" {
			b.WriteString(" " + o.arg)
		}
		b.WriteByte('\n')
	}
	b.WriteString("COMMIT " + c.name + "\n")
	return b.String()
}

// fundBatch is how many accounts one funding transaction writes.
const fundBatch = 64

// fundCalls returns the funding transactions of this connection: WRITEs of
// the initial balance, fundBatch accounts per transaction.
func (s *stream) fundCalls() []call {
	var out []call
	for lo := 0; lo < len(s.keys); lo += fundBatch {
		c := call{name: s.prefix + "c" + strconv.Itoa(s.conn) + "fund" + strconv.Itoa(lo)}
		for i := lo; i < lo+fundBatch && i < len(s.keys); i++ {
			c.ops = append(c.ops, op{"WRITE", s.keys[i], strconv.Itoa(initialBalance)})
		}
		out = append(out, c)
	}
	return out
}

// checkReads compares the values a committed read returned ("site/key" ->
// value) with the model.
func (s *stream) checkReads(t genTxn, reads map[string]string) error {
	for _, acct := range []int{t.from, t.to} {
		got, ok := reads[s.keys[acct]]
		if !ok {
			return fmt.Errorf("%s: no value returned for %s", t.name, s.keys[acct])
		}
		if want := strconv.FormatInt(s.balance[acct], 10); got != want {
			return fmt.Errorf("%s: read %s=%s, model says %s", t.name, s.keys[acct], got, want)
		}
	}
	return nil
}

// auditDump checks the cohorts' final committed state against the models of
// all streams, key for key, and checks that the sum is conserved. state is
// the union of every cohort's DUMP.
func auditDump(streams []*stream, state map[string]string) error {
	var total, want int64
	seen := 0
	for _, s := range streams {
		for i, key := range s.keys {
			got, ok := state[key]
			if !ok {
				return fmt.Errorf("audit: account %s missing from every cohort", key)
			}
			if exp := strconv.FormatInt(s.balance[i], 10); got != exp {
				return fmt.Errorf("audit: %s=%s in the cohorts, model says %s", key, got, exp)
			}
			n, err := strconv.ParseInt(got, 10, 64)
			if err != nil {
				return fmt.Errorf("audit: %s=%q is not a balance", key, got)
			}
			total += n
			want += initialBalance
			seen++
		}
	}
	if total != want {
		return fmt.Errorf("audit: sum %d over %d accounts, funded %d", total, seen, want)
	}
	for key := range state {
		if strings.HasPrefix(key, "c") && strings.Contains(key, ".a") {
			seen--
		}
	}
	if seen != 0 {
		return fmt.Errorf("audit: cohorts hold %d accounts the generator never funded", -seen)
	}
	return nil
}
