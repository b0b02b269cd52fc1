// Command tpcload is the load generator for a tpcserve cluster. It
// drives the coordinator's line-protocol client port with read-then-write
// transfer transactions over disjoint per-worker account sets, in either
// closed-loop (each worker fires its next transaction the moment the
// previous one finishes) or open-loop mode (-rate R sends on a fixed
// schedule regardless of completions and times each transaction from the
// instant it was due, exposing queueing delay).
//
// Usage:
//
//	tpcload -addr 127.0.0.1:7201 -txns 500 [-conc 4] [-rate 0] [-accounts 8] \
//	        [-zipf 0] [-mix 0] [-seed 1] [-prefix p.]
//
// Each worker owns -accounts private accounts funded with 100 each; every
// transaction moves 10 between two of them, so per-worker totals — and
// the cluster-wide sum — are invariant under any serializable execution.
// The generator re-reads its accounts at the end and fails loudly if
// money was created or destroyed: a torn cross-site commit breaks the sum.
//
// -zipf theta skews each worker's account choice zipfian(theta) instead
// of round-robin, concentrating load on hot accounts. -mix f runs
// fraction f of the transactions as commutative increment-transfers —
// one transaction of paired INC -10 / INC +10, which still conserves the
// sum — instead of read-then-write WRITE transfers; under skew the INC
// form shares the hot key's IncMode lock where WRITEs conflict. -seed
// makes the zipfian/mix draws reproducible.
//
// Latencies go into a log-linear histogram; the summary prints p50, p99,
// p999 and txns/sec.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"speccat/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "coordinator client-port address")
	txns := flag.Int("txns", 500, "total transfer transactions across all workers")
	conc := flag.Int("conc", 4, "concurrent workers (connections)")
	rate := flag.Float64("rate", 0, "open-loop send rate in txns/sec across all workers (0 = closed loop)")
	accounts := flag.Int("accounts", 8, "private accounts per worker")
	zipf := flag.Float64("zipf", 0, "zipfian skew theta for account choice (0 = round-robin)")
	mix := flag.Float64("mix", 0, "fraction of transactions run as paired-increment transfers (INC) instead of read-then-write (WRITE)")
	seed := flag.Int64("seed", 1, "seed for the zipfian and mix draws")
	prefix := flag.String("prefix", "", "transaction-name prefix (lets several runs share one cluster: the master rejects reused names)")
	flag.Parse()

	if err := run(*addr, *txns, *conc, *rate, *accounts, *zipf, *mix, *seed, *prefix); err != nil {
		fmt.Fprintf(os.Stderr, "tpcload: %v\n", err)
		os.Exit(1)
	}
}

// client is one line-protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &client{conn: conn, r: sc, w: bufio.NewWriter(conn)}, nil
}

// round sends one command line and returns the one response line.
func (c *client) round(line string) (string, error) {
	if _, err := fmt.Fprintln(c.w, line); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("server closed the connection")
	}
	resp := c.r.Text()
	if strings.HasPrefix(resp, "ERR") {
		return "", fmt.Errorf("server: %s", resp)
	}
	return resp, nil
}

// transfer runs one read-then-write transfer of 10 from one account to
// another as two distributed transactions (a read pair, then a write
// pair), mirroring the conformance suite's workload. It reports whether
// both committed.
func (c *client) transfer(name, from, to string) (bool, error) {
	read := name + "-r"
	for _, cmd := range []string{"BEGIN " + read, "READ " + read + " " + from, "READ " + read + " " + to} {
		if _, err := c.round(cmd); err != nil {
			return false, err
		}
	}
	done, err := c.round("COMMIT " + read)
	if err != nil {
		return false, err
	}
	reads, committed := parseDone(done)
	if !committed {
		return false, nil
	}
	fromBal, toBal := balanceOf(reads, from), balanceOf(reads, to)
	write := name + "-w"
	for _, cmd := range []string{
		"BEGIN " + write,
		"WRITE " + write + " " + from + " " + strconv.Itoa(fromBal-10),
		"WRITE " + write + " " + to + " " + strconv.Itoa(toBal+10),
	} {
		if _, err := c.round(cmd); err != nil {
			return false, err
		}
	}
	done, err = c.round("COMMIT " + write)
	if err != nil {
		return false, err
	}
	_, committed = parseDone(done)
	return committed, nil
}

// incTransfer moves 10 from one account to another as one transaction of
// paired commutative increments — no read phase, and both deltas commit
// or abort atomically, so the conservation audit holds exactly as it
// does for the WRITE form.
func (c *client) incTransfer(name, from, to string) (bool, error) {
	for _, cmd := range []string{
		"BEGIN " + name,
		"INC " + name + " " + from + " -10",
		"INC " + name + " " + to + " 10",
	} {
		if _, err := c.round(cmd); err != nil {
			return false, err
		}
	}
	done, err := c.round("COMMIT " + name)
	if err != nil {
		return false, err
	}
	_, committed := parseDone(done)
	return committed, nil
}

// parseDone splits "DONE <txn> <COMMIT|ABORT> [site/key=value ...]".
func parseDone(line string) (map[string]string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "DONE" {
		return nil, false
	}
	reads := map[string]string{}
	for _, kv := range fields[3:] {
		if k, v, ok := strings.Cut(kv, "="); ok {
			reads[k] = v
		}
	}
	return reads, fields[2] == "COMMIT"
}

// balanceOf finds a key's value among "site/key" read results.
func balanceOf(reads map[string]string, key string) int {
	for k, v := range reads {
		if strings.HasSuffix(k, "/"+key) {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return 0
}

// auditSum adds up the balances one audit transaction read. A value that
// is not an integer is an error naming the transaction and the value: a
// garbled READ must not pass as a balance of zero.
func auditSum(name string, reads map[string]string) (int, error) {
	sum := 0
	for k, v := range reads {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("audit transaction %s: %s=%q is not a balance", name, k, v)
		}
		sum += n
	}
	return sum, nil
}

// workerStats is one worker's tally, merged after the run.
type workerStats struct {
	lat       hist
	committed int
	aborted   int
	err       error
}

// pace is the open-loop schedule: it feeds n tickets, ticket i due at
// start + i·interval on the absolute clock and carrying that due time —
// not one ticker interval after ticket i−1 was drained. A ticker drops
// ticks whenever the drain lags, silently re-pacing the run to the
// cluster's completion rate (coordinated omission: the slow moments are
// exactly the ones removed from the schedule); absolute deadlines instead
// let a lagging run burst to catch back up to the intended schedule.
func pace(tickets chan<- time.Time, start time.Time, interval time.Duration, n int) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 { //lint:allow nowallclock open-loop generator paces real sends on the wall clock
			time.Sleep(d)
		}
		tickets <- due
	}
	close(tickets)
}

// timeOps runs do(0..n-1), recording each call's latency in lat. Open
// loop (tickets non-nil), a call waits for its ticket and is timed from
// the ticket's due time, so the time it sat in the channel behind slower
// predecessors lands in the quantiles instead of vanishing; closed loop,
// it is timed from the moment it starts. It stops early, without error,
// when the schedule runs out.
func timeOps(tickets <-chan time.Time, n int, lat *hist, do func(i int) error) error {
	for i := 0; i < n; i++ {
		begin := time.Now() //lint:allow nowallclock load generator measures real serving-path latency
		if tickets != nil {
			due, ok := <-tickets
			if !ok {
				return nil
			}
			begin = due
		}
		if err := do(i); err != nil {
			return err
		}
		lat.Record(time.Since(begin)) //lint:allow nowallclock load generator measures real serving-path latency
	}
	return nil
}

func run(addr string, txns, conc int, rate float64, accounts int, zipf, mix float64, seed int64, prefix string) error {
	if addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if txns < 1 || conc < 1 || accounts < 2 {
		return fmt.Errorf("need -txns >= 1, -conc >= 1, -accounts >= 2")
	}
	if zipf < 0 || mix < 0 || mix > 1 {
		return fmt.Errorf("need -zipf >= 0 and -mix in [0,1]")
	}

	// Fund every worker's private accounts in one transaction per worker
	// so the invariant starts clean.
	const initial = 100
	acctName := func(w, i int) string { return fmt.Sprintf("w%d.a%d", w, i) }
	setup, err := dial(addr)
	if err != nil {
		return err
	}
	defer setup.conn.Close()
	for w := 0; w < conc; w++ {
		name := fmt.Sprintf("%sfund-w%d", prefix, w)
		if _, err := setup.round("BEGIN " + name); err != nil {
			return err
		}
		for i := 0; i < accounts; i++ {
			if _, err := setup.round(fmt.Sprintf("WRITE %s %s %d", name, acctName(w, i), initial)); err != nil {
				return err
			}
		}
		done, err := setup.round("COMMIT " + name)
		if err != nil {
			return err
		}
		if _, committed := parseDone(done); !committed {
			return fmt.Errorf("funding transaction %s aborted", name)
		}
	}

	var tickets chan time.Time
	if rate > 0 {
		// Sized to the whole schedule, so the pacer never waits on a slow drain.
		tickets = make(chan time.Time, txns)
		go pace(tickets, time.Now(), time.Duration(float64(time.Second)/rate), txns) //lint:allow nowallclock open-loop generator paces real sends on the wall clock
	}

	stats := make([]workerStats, conc)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow nowallclock load generator measures real serving-path throughput
	for w := 0; w < conc; w++ {
		w := w
		share := txns / conc
		if w < txns%conc {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stats[w]
			c, err := dial(addr)
			if err != nil {
				st.err = err
				return
			}
			defer c.conn.Close()
			// Per-worker seeded draws keep the account choice and the
			// WRITE/INC mix reproducible across runs of the same -seed.
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var chooser *workload.Zipf
			if zipf > 0 {
				chooser = workload.NewZipf(rng, accounts, zipf)
			}
			st.err = timeOps(tickets, share, &st.lat, func(i int) error {
				fromIdx, toIdx := i%accounts, (i+1)%accounts
				if chooser != nil {
					fromIdx = chooser.Next()
					for toIdx = chooser.Next(); toIdx == fromIdx; toIdx = chooser.Next() {
					}
				}
				from := acctName(w, fromIdx)
				to := acctName(w, toIdx)
				name := fmt.Sprintf("%sw%d.t%d", prefix, w, i)
				var committed bool
				if mix > 0 && rng.Float64() < mix {
					committed, err = c.incTransfer(name, from, to)
				} else {
					committed, err = c.transfer(name, from, to)
				}
				if err != nil {
					return err
				}
				if committed {
					st.committed++
				} else {
					st.aborted++
				}
				return nil
			})
		}()
	}
	wg.Wait()
	wall := time.Since(start) //lint:allow nowallclock load generator measures real serving-path throughput

	var lat hist
	committed, aborted := 0, 0
	for w := range stats {
		if stats[w].err != nil {
			return fmt.Errorf("worker %d: %w", w, stats[w].err)
		}
		committed += stats[w].committed
		aborted += stats[w].aborted
		lat.Merge(&stats[w].lat)
	}

	// Atomicity audit: re-read every account and check conservation.
	total := 0
	for w := 0; w < conc; w++ {
		name := fmt.Sprintf("%saudit-w%d", prefix, w)
		if _, err := setup.round("BEGIN " + name); err != nil {
			return err
		}
		for i := 0; i < accounts; i++ {
			if _, err := setup.round("READ " + name + " " + acctName(w, i)); err != nil {
				return err
			}
		}
		done, err := setup.round("COMMIT " + name)
		if err != nil {
			return err
		}
		reads, ok := parseDone(done)
		if !ok {
			return fmt.Errorf("audit transaction %s aborted", name)
		}
		sum, err := auditSum(name, reads)
		if err != nil {
			return err
		}
		total += sum
	}
	want := conc * accounts * initial
	violations := 0
	if total != want {
		violations = 1
	}

	tps := float64(committed+aborted) / wall.Seconds()
	fmt.Printf("tpcload: %d txns (%d committed, %d aborted) in %v\n", committed+aborted, committed, aborted, wall.Round(time.Millisecond))
	fmt.Printf("  throughput  %.1f txns/sec\n", tps)
	if rate > 0 {
		// An achieved rate well under the requested one means the cluster,
		// not the schedule, was the bottleneck — latency quantiles then
		// include the queueing delay the closed loop would have hidden.
		fmt.Printf("  open-loop   requested=%.1f txns/sec achieved=%.1f txns/sec (%.0f%%)\n",
			rate, tps, 100*tps/rate)
	}
	fmt.Printf("  latency     p50=%v p99=%v p999=%v min=%v max=%v\n",
		lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999), lat.Min(), lat.Max())
	fmt.Printf("  atomicity   total=%d want=%d violations=%d\n", total, want, violations)
	if violations != 0 {
		return fmt.Errorf("atomicity violated: account total %d, want %d", total, want)
	}
	return nil
}
