package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

const (
	// siteShards is the per-cohort shard count of the serving path.
	siteShards = 4
	// warmupPerConn transactions run untimed on each connection before the
	// window, so that peer connections are dialled and heaps have grown.
	warmupPerConn = 150
	// setupReps is how many times a run sets the cluster up; setup_s is the
	// lower quartile, and the window runs on the last one.
	setupReps = 5
	// openRate is the arrival rate of durable_open in transactions per
	// second: about half of what durable_closed commits on the 2-core
	// reference box (see README.md), so that latency moves before
	// throughput does.
	openRate = 250.0
)

// servingSpec is what distinguishes the three serving workloads; the
// stream is the same for all of them.
type servingSpec struct {
	durable bool // file journals on the real filesystem
	open    bool // open loop at openRate instead of a closed loop
	restart bool // end with the kill -9 / restart phase
}

var servingSpecs = map[string]servingSpec{
	"durable_closed": {durable: true, restart: true},
	"mem_closed":     {},
	"durable_open":   {durable: true, open: true},
}

// loadConns is the number of client connections, and of load goroutines.
func loadConns() int {
	n := nproc()
	if n > 4 {
		n = 4
	}
	return n
}

// buildServer compiles cmd/tpcserve from the checkout into the build
// directory.
func buildServer(env *environment) (string, error) {
	bin := filepath.Join(env.buildDir, "bin", "tpcserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tpcserve")
	cmd.Dir = env.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tpcserve: %w\n%s", err, out)
	}
	return bin, nil
}

// servingSetup is a booted, funded and warmed-up cluster.
type servingSetup struct {
	cluster *procCluster
	ports   []port
	admin   port
	streams []*stream
}

func (s *servingSetup) teardown() {
	for _, p := range s.ports {
		p.close()
	}
	if s.admin != nil {
		s.admin.close()
	}
	s.cluster.kill()
}

// setUpServing boots a cluster, funds every account and warms it up.
func setUpServing(bin, runDir string, spec servingSpec, seed int64, conns, warmup int) (*servingSetup, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	cluster, err := newProcCluster(bin, runDir, spec.durable)
	if err != nil {
		return nil, err
	}
	if err := cluster.start(); err != nil {
		return nil, err
	}
	s := &servingSetup{cluster: cluster}
	dial := func() (port, error) {
		c, err := dialLine(cluster.client[0])
		if err != nil {
			return nil, err
		}
		return linePort{c}, nil
	}
	if s.admin, err = dial(); err != nil {
		s.teardown()
		return nil, err
	}
	for c := 0; c < conns; c++ {
		p, err := dial()
		if err != nil {
			s.teardown()
			return nil, err
		}
		s.ports = append(s.ports, p)
		s.streams = append(s.streams, newStream(seed, c, ""))
	}
	if err := fund(s.admin, s.streams); err != nil {
		s.teardown()
		return nil, err
	}
	warm := driveCount(s.ports, s.streams, warmup)
	if err := firstProblem(warm); err != nil {
		s.teardown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// firstProblem turns a load result into an error when anything failed.
func firstProblem(r *loadResult) error {
	if r.err != nil {
		return r.err
	}
	return r.firstFail
}

// runServing runs one serving workload end to end on real processes.
func runServing(env *environment, name string, cfg runConfig) (*result, error) {
	spec := servingSpecs[name]
	res := newResult(name, cfg)
	conns := loadConns()
	res.Conns = conns
	window := cfg.window()
	warmup := warmupPerConn
	if cfg.tiny {
		warmup = 20
	}

	bin, err := buildServer(env)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over; the window runs on the last cluster.
	var setup *servingSetup
	var setupTimes []float64
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if setup != nil {
			setup.teardown()
		}
		runDir := filepath.Join(env.runDir, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		setup, err = setUpServing(bin, runDir, spec, cfg.seed, conns, warmup)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer setup.teardown()
	cluster := setup.cluster
	res.Counts["funded_accounts"] = conns * accountsPerConn
	res.Counts["warmup_txns"] = conns * warmup
	res.Segments["setup_s"] = setupTimes

	if spec.durable {
		// The disk calibration every durable result file carries.
		_, syncs, err := timeJournal(filepath.Join(env.runDir, "calibrate.journal"), newStream(cfg.seed, 0, "cal"), 50, 50)
		if err != nil {
			return nil, err
		}
		res.extra("stable.fsync_us", median(syncs), "us")
	}

	// The measured window: the connections drive the load while this
	// goroutine samples the servers at every slice boundary.
	smp := newSampler(cluster.pids(), window)
	journal0, err := cluster.journalBytes()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	loaded := make(chan *loadResult, 1)
	go func() {
		if spec.open {
			loaded <- driveOpen(setup.ports, setup.streams, start, window, openRate)
		} else {
			loaded <- driveClosed(setup.ports, setup.streams, start, window)
		}
	}()
	smp.run(start)
	load := <-loaded
	journal1, err := cluster.journalBytes()
	if err != nil {
		return nil, err
	}
	if smp.err != nil {
		return nil, smp.err
	}
	if load.err != nil {
		return nil, load.err
	}
	if err := cluster.earlyExit(); err != nil {
		return nil, err
	}

	res.Attempted = load.attempted
	res.Failed = load.failed
	if load.firstFail != nil {
		res.problem(load.firstFail.Error())
	}
	committed := len(load.samples)
	if committed == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in the window", name)
	}
	res.Counts["window_committed"] = committed
	summarizeWindow(res, load, smp, spec.open)
	res.set("setup_s", quantile(setupTimes, 0.25))
	if spec.durable {
		res.extra("journal_bytes_per_txn", float64(journal1-journal0)/float64(committed), "B")
	}
	if spec.open {
		res.extra("gen.late_share", float64(load.late)/float64(load.attempted), "share")
		res.extra("offered_per_s", openRate, "1/s")
	}

	// Audits: every cohort's committed state, key for key, and the sum.
	dumps, state, err := dumpCohorts(cluster)
	if err != nil {
		return nil, err
	}
	if err := auditDump(setup.streams, state); err != nil {
		res.Failed++
		res.problem(err.Error())
	}

	if spec.restart {
		if err := restartPhase(res, setup, dumps); err != nil {
			res.Failed++
			res.problem(err.Error())
		}
	}
	if err := cluster.earlyExit(); err != nil {
		return nil, err
	}
	return res, nil
}

// dumpCohorts returns each cohort's DUMP, raw and merged.
func dumpCohorts(c *procCluster) ([]string, map[string]string, error) {
	var raws []string
	state := map[string]string{}
	for _, addr := range c.cohortAddrs() {
		raw, kv, err := dumpNode(addr)
		if err != nil {
			return nil, nil, err
		}
		raws = append(raws, raw)
		for k, v := range kv {
			state[k] = v
		}
	}
	return raws, state, nil
}

// restartPhase replays what the window appended: with the cluster quiet,
// kill -9 all four servers, restart them on the same journals, and time
// how long it takes until every cohort's DUMP is byte-equal to its
// pre-kill DUMP and one probe write commits.
func restartPhase(res *result, s *servingSetup, before []string) error {
	c := s.cluster
	journal, err := c.journalBytes()
	if err != nil {
		return err
	}
	for _, p := range s.ports {
		p.close()
	}
	s.admin.close()
	s.ports, s.admin = nil, nil
	c.kill()

	t0 := time.Now()
	if err := c.start(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	after, _, err := dumpCohorts(c)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	for i := range before {
		if after[i] != before[i] {
			return fmt.Errorf("restart: cohort %d's DUMP differs from its pre-kill DUMP (%d vs %d bytes)",
				i+2, len(after[i]), len(before[i]))
		}
	}
	cl, err := dialLine(c.client[0])
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer cl.close()
	probe := call{name: "probe", ops: []op{{"WRITE", "probe.k", "1"}}}
	out, err := cl.exec(probe.lines())
	if err != nil {
		return fmt.Errorf("restart: probe write: %w", err)
	}
	if !out.committed {
		return fmt.Errorf("restart: the probe write aborted")
	}
	res.extra("restart_s", time.Since(t0).Seconds(), "s")
	res.extra("restart_journal_mb", float64(journal)/(1<<20), "MB")
	return nil
}
