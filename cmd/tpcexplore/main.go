// Command tpcexplore runs the deterministic fault-schedule explorer over
// the full transaction stack (master + sites + strict-2PL kvstore + WAL on
// the simulated network): every root seed expands into a reproducible
// crash/restart/drop/delay schedule, the run is judged by the atomicity,
// durability, serializability, and progress oracles, and failing schedules
// are shrunk to minimal counterexamples recorded as replayable traces.
//
// Usage:
//
//	tpcexplore -protocol 2pc -seeds 80                  # rediscovers 2PC blocking
//	tpcexplore -protocol 3pc -seeds 80 -expect none     # full 3PC must run clean
//	tpcexplore -replay internal/explore/testdata/2pc_blocking.json
//	tpcexplore -protocol 2pc -seeds 80 -out traces      # write shrunk traces
//
// Naive timeouts and unsafe termination are mutants (make mutants), not protocols.
//
// The exploration is a pure function of its flags: the same invocation
// reproduces the same findings, traces and exit code. -budget bounds the
// number of simulated runs (not wall time), so CI runs are bounded too.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"speccat/internal/explore"
	"speccat/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpcexplore:", err)
		os.Exit(1)
	}
}

func run() error {
	protocol := flag.String("protocol", "3pc", "protocol: 3pc or 2pc")
	seeds := flag.Int("seeds", 32, "number of root seeds to explore")
	startSeed := flag.Int64("seed", 1, "first root seed")
	budget := flag.Int("budget", 0, "max simulated runs, probes and shrinking included (0 = unlimited)")
	sites := flag.Int("sites", 3, "number of data sites")
	txns := flag.Int("txns", 12, "workload transactions per schedule")
	accounts := flag.Int("accounts", 8, "number of accounts")
	crashes := flag.Int("crashes", 1, "crash faults per schedule (>1 exceeds the paper's fault tolerance)")
	drops := flag.Int("drops", 0, "dropped sends per schedule (violates the reliable-network assumption)")
	delays := flag.Int("delays", 0, "delay-inflated sends per schedule (violates bounded delay)")
	maxDelay := flag.Int64("max-delay", 25, "max extra ticks per delayed send")
	shrink := flag.Bool("shrink", true, "shrink findings to minimal counterexamples")
	expect := flag.String("expect", "", "exit non-zero unless the outcome matches: none, atomicity, durability, serializability, or progress")
	outDir := flag.String("out", "", "directory to write shrunk counterexample traces to")
	replay := flag.String("replay", "", "replay a recorded trace file instead of exploring")
	flag.Parse()

	if *replay != "" {
		return replayTrace(*replay)
	}

	opts := explore.Options{
		Protocol:  *protocol,
		Seeds:     *seeds,
		StartSeed: *startSeed,
		Budget:    *budget,
		Sites:     *sites,
		Txns:      *txns,
		Accounts:  *accounts,
		Crashes:   *crashes,
		Drops:     *drops,
		Delays:    *delays,
		MaxDelay:  sim.Time(*maxDelay),
		Shrink:    *shrink,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	rep, err := explore.Explore(opts)
	if err != nil {
		return err
	}

	fmt.Printf("%s: %d seeds explored, %d simulated runs, %d findings\n",
		rep.Protocol, rep.SeedsRun, rep.Runs, len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Printf("  seed %-6d %-16s faults: %v\n", f.Seed, f.Oracle, f.Schedule.Faults)
		if f.Minimal != nil {
			fmt.Printf("    shrunk to %d txn(s), faults: %v\n", f.Minimal.Schedule.Txns, f.Minimal.Schedule.Faults)
			for _, v := range f.Minimal.Violations {
				fmt.Printf("    %s: %s\n", v.Oracle, v.Detail)
			}
		}
	}

	if *outDir != "" {
		if err := writeTraces(rep, *outDir); err != nil {
			return err
		}
	}
	return checkExpect(rep, *expect)
}

// replayTrace re-executes a recorded schedule and reports whether the run
// reproduces the recording.
func replayTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := explore.ParseTrace(data)
	if err != nil {
		return err
	}
	res, err := explore.Run(rec.Schedule)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s: protocol=%s seed=%d txns=%d faults=%v\n",
		path, rec.Schedule.Protocol, rec.Schedule.Seed, rec.Schedule.Txns, rec.Schedule.Faults)
	for _, ev := range res.Events {
		fmt.Printf("  t=%-6d %s\n", ev.T, ev.What)
	}
	if len(res.Violations) == 0 {
		fmt.Println("no oracle violations")
	}
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION %s txn=%s site=%d: %s\n", v.Oracle, v.Txn, v.Site, v.Detail)
	}
	if string(res.Trace()) != string(data) {
		return fmt.Errorf("replay diverged from the recorded trace (engine changed since it was recorded)")
	}
	fmt.Println("replay matches recording byte-for-byte")
	return nil
}

// writeTraces records each shrunk counterexample under dir.
func writeTraces(rep *explore.Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range rep.Findings {
		if f.Minimal == nil {
			continue
		}
		name := fmt.Sprintf("%s_%s_seed%d.json", rep.Protocol, f.Oracle, f.Seed)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, f.Minimal.Trace(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// checkExpect turns the report into an exit status for CI: "none" demands
// a clean exploration, an oracle name demands that oracle was violated.
func checkExpect(rep *explore.Report, expect string) error {
	switch expect {
	case "":
		return nil
	case "none":
		if len(rep.Findings) != 0 {
			return fmt.Errorf("expected no violations, found %d (first: seed %d, %s)",
				len(rep.Findings), rep.Findings[0].Seed, rep.Findings[0].Oracle)
		}
		fmt.Println("expectation met: no violations")
		return nil
	case explore.OracleAtomicity, explore.OracleDurability, explore.OracleSerializability, explore.OracleProgress:
		for _, f := range rep.Findings {
			for _, o := range f.Oracles {
				if o == expect {
					fmt.Printf("expectation met: %s violation found (seed %d)\n", expect, f.Seed)
					return nil
				}
			}
		}
		return fmt.Errorf("expected a %s violation, found none in %d seeds", expect, rep.SeedsRun)
	default:
		return fmt.Errorf("unknown -expect value %q", expect)
	}
}
