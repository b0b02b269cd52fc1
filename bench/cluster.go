package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The end-to-end cluster: four real tpcserve processes (node 1 the
// coordinator, nodes 2..4 the cohorts) running 3PC as internal/e2e runs
// them. Nothing of the benchmark is inside these processes.

const (
	clusterNodes = 4
	// The synchrony settings of internal/e2e: a 1 ms tick and a delay bound
	// wide enough that an event-loop stall on a loaded box is never taken
	// for a failure.
	serveTick  = "1ms"
	serveDelta = "400"
)

// procCluster is one tpcserve deployment. start may be called again after
// kill to restart the same nodes on the same addresses and data.
type procCluster struct {
	bin     string
	dataDir string // "" runs the servers without -data (in-memory stores)
	extra   []string
	wire    []string
	client  []string
	logPath string

	mu      sync.Mutex
	procs   []*serverProc
	stopped bool // kill was asked for: an exit is no longer an early exit
}

type serverProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error
}

// serveFlags asks the binary which of the serving-path knobs it still has
// and returns the ones to pass. A later change that makes one of them the
// only behaviour and deletes its flag needs no change here.
func serveFlags(bin string) ([]string, error) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, fmt.Errorf("%s -h: %w", bin, err)
	}
	usage := string(out)
	var flags []string
	if strings.Contains(usage, "\n  -shards ") {
		flags = append(flags, "-shards", strconv.Itoa(siteShards))
	}
	if strings.Contains(usage, "\n  -group") {
		flags = append(flags, "-group")
	}
	if strings.Contains(usage, "\n  -scoped") {
		flags = append(flags, "-scoped")
	}
	return flags, nil
}

// reservePorts binds n ephemeral loopback listeners, notes their
// addresses and releases them for the servers to bind.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			_ = l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// newProcCluster prepares a deployment under runDir; durable selects file
// journals in runDir/data.
func newProcCluster(bin, runDir string, durable bool) (*procCluster, error) {
	extra, err := serveFlags(bin)
	if err != nil {
		return nil, err
	}
	addrs, err := reservePorts(2 * clusterNodes)
	if err != nil {
		return nil, err
	}
	c := &procCluster{
		bin: bin, extra: extra,
		wire: addrs[:clusterNodes], client: addrs[clusterNodes:],
		logPath: filepath.Join(runDir, "servers.log"),
	}
	if durable {
		c.dataDir = filepath.Join(runDir, "data")
	}
	return c, nil
}

// start launches the four servers and waits until every client port
// accepts connections.
func (c *procCluster) start() error {
	var parts []string
	for i, addr := range c.wire {
		parts = append(parts, fmt.Sprintf("%d=%s", i+1, addr))
	}
	logf, err := os.OpenFile(c.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the children hold their own descriptors

	c.mu.Lock()
	c.stopped = false
	c.procs = nil
	c.mu.Unlock()
	for i := 0; i < clusterNodes; i++ {
		args := []string{
			"-node", strconv.Itoa(i + 1),
			"-cluster", strings.Join(parts, ","),
			"-client", c.client[i],
			"-protocol", "3pc",
			"-tick", serveTick, "-delta", serveDelta,
		}
		if c.dataDir != "" {
			args = append(args, "-data", filepath.Join(c.dataDir, fmt.Sprintf("n%d", i+1)))
		}
		args = append(args, c.extra...)
		cmd := exec.Command(c.bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Its own process group, so the whole group can be killed; and the
		// kernel kills it should the benchmark itself be killed (main pins
		// the spawning goroutine to the main thread for this).
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			c.kill()
			return fmt.Errorf("start node %d: %w", i+1, err)
		}
		p := &serverProc{cmd: cmd, done: make(chan struct{})}
		go func() {
			p.err = cmd.Wait()
			close(p.done)
		}()
		c.mu.Lock()
		c.procs = append(c.procs, p)
		c.mu.Unlock()
	}
	for i, addr := range c.client {
		if err := c.waitReady(addr); err != nil {
			c.kill()
			return fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	return nil
}

// waitReady polls a client port until it accepts a connection, failing at
// once if a server has exited.
func (c *procCluster) waitReady(addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return nil
		}
		if err := c.earlyExit(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", addr)
}

// earlyExit reports a server that ended without being asked to. A run
// whose servers did not all live through it produces no numbers.
func (c *procCluster) earlyExit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	for i, p := range c.procs {
		select {
		case <-p.done:
			return fmt.Errorf("tpcserve node %d exited early (%v); see %s", i+1, p.err, c.logPath)
		default:
		}
	}
	return nil
}

// kill sends SIGKILL to every server's process group and waits until each
// has ended. It is safe to call more than once.
func (c *procCluster) kill() {
	c.mu.Lock()
	c.stopped = true
	procs := c.procs
	c.mu.Unlock()
	for _, p := range procs {
		if p.cmd.Process != nil {
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
	for _, p := range procs {
		<-p.done
	}
}

func (c *procCluster) pids() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	pids := make([]int, len(c.procs))
	for i, p := range c.procs {
		pids[i] = p.cmd.Process.Pid
	}
	return pids
}

// cohortAddrs are the client ports of the data sites.
func (c *procCluster) cohortAddrs() []string { return c.client[1:] }

// journalBytes sums the sizes of the four journals (0 without -data).
func (c *procCluster) journalBytes() (int64, error) {
	if c.dataDir == "" {
		return 0, nil
	}
	var total int64
	for i := 1; i <= clusterNodes; i++ {
		st, err := os.Stat(filepath.Join(c.dataDir, fmt.Sprintf("n%d", i), fmt.Sprintf("node%d.journal", i)))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// cpuSeconds returns the user+system CPU time the processes have used.
func cpuSeconds(pids []int) (float64, error) {
	ticks := 0.0
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may hold spaces; fields are counted
		// from the ")" that ends it. utime and stime are fields 14 and 15.
		i := bytes.LastIndexByte(raw, ')')
		fields := strings.Fields(string(raw[i+1:]))
		if i < 0 || len(fields) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
		}
		for _, f := range fields[11:13] {
			n, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			ticks += n
		}
	}
	return ticks / clockTicksPerSecond, nil
}

// rssMB returns a process's resident set size.
func rssMB(pid int) (float64, error) { return procStatusMB(pid, "VmRSS:") }

// procStatusMB reads one of the kB fields of /proc/<pid>/status.
func procStatusMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}
