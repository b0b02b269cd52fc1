// Package e2e smoke-tests the serving path as real processes: it builds
// cmd/tpcserve and cmd/tpcload with the local toolchain, boots a
// 1-coordinator/3-cohort cluster on ephemeral loopback ports with
// file-journaled stores, drives 500 transfer transactions through the
// load generator plus a zipfian commutative-increment mix (-zipf/-mix,
// the INC verb), checks the quantiles tpcload prints, and audits
// the cohorts' final committed state for atomicity violations via the
// DUMP protocol; restart_test.go kills -9 and restarts every node of
// such a cluster on its journal. Everything the unit and conformance
// layers prove in-process must also hold across fork/exec and real
// sockets — this is where that claim is checked.
package e2e

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"speccat/internal/rt"
	"speccat/internal/txn"
)

// reservePorts binds n ephemeral loopback listeners, records their
// addresses, and releases them. The gap between release and the server's
// own bind is racy in principle; in practice the kernel does not reissue
// an ephemeral port this quickly, and the test fails loudly if it does.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// buildBinaries compiles both serving-path commands into dir.
func buildBinaries(t *testing.T, dir string) (serve, load string) {
	t.Helper()
	serve = filepath.Join(dir, "tpcserve")
	load = filepath.Join(dir, "tpcload")
	for bin, pkg := range map[string]string{serve: "speccat/cmd/tpcserve", load: "speccat/cmd/tpcload"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return serve, load
}

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// waitReady polls an address until a TCP connect succeeds.
func waitReady(t *testing.T, addr string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", addr)
}

// dump sends DUMP to a node's client port and returns its committed
// key/value state.
func dump(t *testing.T, addr string) map[string]string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, "DUMP"); err != nil {
		t.Fatalf("send DUMP: %v", err)
	}
	state := map[string]string{}
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := sc.Text()
		if line == "END" {
			return state
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "KV" {
			t.Fatalf("bad DUMP line %q", line)
		}
		state[fields[1]] = fields[2]
	}
	t.Fatalf("DUMP stream from %s ended without END: %v", addr, sc.Err())
	return nil
}

// exchange sends each line to a client port and reads one reply per line,
// returning the last.
func exchange(t *testing.T, conn net.Conn, sc *bufio.Scanner, lines ...string) (reply string) {
	t.Helper()
	for _, line := range lines {
		if _, err := fmt.Fprintln(conn, line); err != nil || !sc.Scan() {
			t.Fatalf("%.60q: %v %v", line, err, sc.Err())
		}
		reply = sc.Text()
	}
	return reply
}

// e2e test shape shared by every cluster boot: node 1 coordinates, 2..4
// hold data; 500 transfers over 4 worker connections and 8 private
// accounts of 100 each.
const (
	nodes    = 4
	txns     = 500
	workers  = 4
	accounts = 8
	initial  = 100
)

// tpcCluster is one running tpcserve deployment, its client ports, and
// what it takes to start node i again: the binary, its arguments and the
// journal they name.
type tpcCluster struct {
	client   []string
	procs    []*exec.Cmd
	serveBin string
	args     [][]string
	journal  []string
}

// start launches node i (0-based) with the arguments it was booted with.
func (c *tpcCluster) start(t *testing.T, i int) {
	t.Helper()
	cmd := exec.Command(c.serveBin, c.args[i]...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start node %d: %v", i+1, err)
	}
	c.procs[i] = cmd
}

// killRestart is kill -9 and a new process on the same journal: the node
// comes back by constructing its engine over whatever the old one left.
func (c *tpcCluster) killRestart(t *testing.T, i int) {
	t.Helper()
	_ = c.procs[i].Process.Kill()
	_ = c.procs[i].Wait()
	c.start(t, i)
	waitReady(t, c.client[i], 15*time.Second)
}

// bootCluster starts a 1-coordinator/3-cohort deployment with
// file-journaled stores under dataPrefix, plus any extra per-node flags
// (-shards), and waits until every client port accepts connections.
func bootCluster(t *testing.T, serveBin, dataPrefix string, extra ...string) *tpcCluster {
	t.Helper()
	addrs := reservePorts(t, 2*nodes) // wire ports then client ports
	wire, client := addrs[:nodes], addrs[nodes:]
	var clusterParts []string
	for i := 0; i < nodes; i++ {
		clusterParts = append(clusterParts, fmt.Sprintf("%d=%s", i+1, wire[i]))
	}
	cluster := strings.Join(clusterParts, ",")

	c := &tpcCluster{client: client, procs: make([]*exec.Cmd, nodes), serveBin: serveBin}
	t.Cleanup(c.stop)
	for i := 0; i < nodes; i++ {
		data := fmt.Sprintf("%s%d", dataPrefix, i+1)
		c.journal = append(c.journal, filepath.Join(data, fmt.Sprintf("node%d.journal", i+1)))
		args := []string{
			"-node", strconv.Itoa(i + 1),
			"-cluster", cluster,
			"-client", client[i],
			"-protocol", "3pc",
			"-data", data,
			// The default delay bound (10 ticks = 10ms) models a quiet
			// host. Loaded CI boxes stall event loops for >40ms, and the
			// sharded audit's 32-connection closed loop queues commits
			// behind the journal for >200ms; either would fire the cohorts'
			// failure-handling timeouts mid-commit and break the synchrony
			// assumption 3PC termination rests on. The only faults ever
			// injected here are TestServeKillRestart's kills, which restart
			// the node well inside a phase timeout, so widen the bound.
			"-tick", "1ms",
			"-delta", "400",
		}
		c.args = append(c.args, append(args, extra...))
		c.start(t, i)
	}
	for i := 0; i < nodes; i++ {
		waitReady(t, client[i], 15*time.Second)
	}
	return c
}

func (c *tpcCluster) stop() {
	for _, p := range c.procs {
		if p != nil && p.Process != nil {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, p := range c.procs {
		if p != nil {
			_ = p.Wait()
		}
	}
	c.procs = nil
}

// auditDump sums the tpcload account balances straight from the cohorts'
// committed stores via DUMP and checks exact conservation — the
// store-level half of the durability claim, independent of the load
// generator's own read-transaction audit.
func auditDump(t *testing.T, c *tpcCluster, conc int) {
	t.Helper()
	total, keys := 0, 0
	for i := 1; i < nodes; i++ {
		for key, val := range dump(t, c.client[i]) {
			if !strings.HasPrefix(key, "w") { // tpcload accounts are w<worker>.a<idx>
				continue
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				t.Fatalf("non-numeric balance %s=%q", key, val)
			}
			total += n
			keys++
		}
	}
	if wantKeys := conc * accounts; keys != wantKeys {
		t.Errorf("dumped %d accounts across cohorts, want %d", keys, wantKeys)
	}
	if wantTotal := conc * accounts * initial; total != wantTotal {
		t.Errorf("atomicity violated in final store dump: total %d, want %d", total, wantTotal)
	}
}

// runLoad runs tpcload to completion. tpcload itself audits conservation
// and exits nonzero on a violation; the explicit marker line is the belt
// to that suspenders. It returns tpcload's output.
func runLoad(t *testing.T, loadBin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(loadBin, args...).CombinedOutput()
	t.Logf("tpcload %s:\n%s", strings.Join(args, " "), out)
	if err != nil {
		t.Fatalf("tpcload failed: %v", err)
	}
	if !strings.Contains(string(out), "violations=0") {
		t.Fatal("tpcload did not report zero atomicity violations")
	}
	return string(out)
}

// TestServeSmoke is satellite 4: real binaries, real sockets, 500
// transactions, zero atomicity violations, positive latency quantiles.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke is not a -short test")
	}
	dir := t.TempDir()
	serveBin, loadBin := buildBinaries(t, dir)
	cl := bootCluster(t, serveBin, filepath.Join(dir, "data"))
	client := cl.client

	// Drive the load generator as a real subprocess against the
	// coordinator's client port.
	out := runLoad(t, loadBin,
		"-addr", client[0],
		"-txns", strconv.Itoa(txns),
		"-conc", strconv.Itoa(workers),
		"-accounts", strconv.Itoa(accounts),
	)

	// tpcload must report the serving-path quantiles.
	m := regexp.MustCompile(`latency\s+p50=(\S+) p99=(\S+) p999=(\S+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatal("tpcload printed no latency p50/p99/p999 line")
	}
	for i, name := range []string{"p50", "p99", "p999"} {
		if d, err := time.ParseDuration(m[i+1]); err != nil || d <= 0 {
			t.Errorf("tpcload %s = %q (%v), want a positive duration", name, m[i+1], err)
		}
	}

	// Second pass against the same cluster: zipfian-skewed accounts with a
	// commutative INC mix. This pushes the INC verb — and with it IncMode
	// locking and the WAL's logical records — through real sockets and
	// journals; paired ±10 increments conserve the sum exactly like the
	// WRITE transfers, so the same audits apply. The re-funding writes at
	// the start of the run reset every balance to 100 first.
	runLoad(t, loadBin,
		"-addr", client[0],
		"-txns", "200",
		"-conc", strconv.Itoa(workers),
		"-accounts", strconv.Itoa(accounts),
		"-zipf", "0.9",
		"-mix", "0.7",
		"-seed", "7",
		"-prefix", "mix.",
	)

	// Final-state audit straight from the cohorts' committed stores: the
	// funded money must be exactly conserved across all sites. A torn
	// cross-site commit (one branch applied, its sibling not) breaks this.
	auditDump(t, cl, workers)
}

// TestServeShardedAudit runs the serving path at the shape the benchmark
// drives it — four shards per cohort, 32 connections, so the pipelined
// group commit batches many committers per fsync and transfers cross
// shards and sites under real contention — and audits it twice: the load
// generator's own conservation check over read transactions, then a DUMP
// of every cohort's committed store. It asserts nothing about speed; the
// per-record-fsync arm the binary used to have, and the wall-clock
// multiplier measured against it, went together (EXPERIMENTS.md E19).
func TestServeShardedAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess audit is not a -short test")
	}
	const conc = 32
	dir := t.TempDir()
	serveBin, loadBin := buildBinaries(t, dir)
	cl := bootCluster(t, serveBin, filepath.Join(dir, "data"), "-shards", "4")

	runLoad(t, loadBin,
		"-addr", cl.client[0],
		"-txns", strconv.Itoa(txns),
		"-conc", strconv.Itoa(conc),
		"-accounts", strconv.Itoa(accounts),
	)
	auditDump(t, cl, conc)
}

// TestServeRefusedStartwork: a transaction whose work for one site does not
// fit a wire frame used to get "ERR ... oversized frame" with the branch it
// had already opened at an earlier site left open: that site's keys stayed
// locked until the cohort was restarted. The work rides on the commit
// request, and a refused commit request is a no vote — the coordinator
// aborts at once (not "ERR transaction timed out"), the branch the earlier
// site opened rolls back, and the next transaction on the same key commits.
func TestServeRefusedStartwork(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess transcript is not a -short test")
	}
	dir := t.TempDir()
	serveBin, _ := buildBinaries(t, dir)
	cl := bootCluster(t, serveBin, filepath.Join(dir, "data"))

	// Sites get their commit requests in ID order: a small write homed on
	// site 2 opens its branch before the oversized request for site 3 is
	// refused.
	sites := []rt.NodeID{2, 3, 4}
	var small string
	var big []string
	for i := 0; small == "" || len(big) < 3; i++ {
		switch key := fmt.Sprintf("k%d", i); txn.SiteFor(sites, key) {
		case 2:
			small = key
		case 3:
			big = append(big, key)
		}
	}
	conn, err := net.DialTimeout("tcp", cl.client[0], 5*time.Second)
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, 1<<20)
	lines := []string{"BEGIN big", "WRITE big " + small + " v"}
	for _, key := range big[:3] { // 3 × 400 kB > the 1 MiB frame limit
		lines = append(lines, "WRITE big "+key+" "+strings.Repeat("x", 400_000))
	}
	if reply := exchange(t, conn, sc, append(lines, "COMMIT big")...); reply != "DONE big ABORT" {
		t.Fatalf("oversized transaction: %.120q, want DONE big ABORT", reply)
	}
	reply := exchange(t, conn, sc, "BEGIN after", "WRITE after "+small+" v", "COMMIT after")
	if reply != "DONE after COMMIT" {
		t.Fatalf("transaction on the key the refused one touched: %q (its branch is still open)", reply)
	}
	if got := dump(t, cl.client[1])[small]; got != "v" {
		t.Fatalf("site 2 has %s=%q, want v", small, got)
	}
}
