// Command bench is the repository's benchmark: three serving workloads
// driven end to end against four real tpcserve processes, one workload on
// the thesis corpus proof pipeline, and for each a separate traced run
// that times calls into every layer from here, outside the program. See
// README.md for why each workload exists and how the metrics interact.
//
// Usage (from the root of a checkout, through bench/run.sh):
//
//	bash bench/run.sh --workload durable_closed --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload mem_closed --seed 1 --seconds 20 --trace 1 -out trace.json
//	bash bench/run.sh -agree a.json b.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json names (the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment is where a run builds and keeps its files: all inside the
// checkout, under .bench_build.
type environment struct {
	root     string // the checkout: the directory of the speccat go.mod
	buildDir string // root/.bench_build
	runDir   string // a fresh directory of this run, removed at the end
}

// findRoot walks up from the working directory to the speccat module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.TrimSpace(line) == "module speccat" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no speccat go.mod at or above the working directory: the benchmark builds the servers from the checkout it runs in")
		}
		dir = parent
	}
}

func newEnvironment() (*environment, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	env := &environment{root: root, buildDir: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(filepath.Join(env.buildDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	// Journals go under the checkout, on its real filesystem, never /tmp.
	env.runDir, err = os.MkdirTemp(env.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return env, nil
}

func (e *environment) cleanup() { _ = os.RemoveAll(e.runDir) }

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	// tiny shrinks warm-up, set-up repetitions and layer-driver counts for
	// the smoke test; it is not a way to run the benchmark.
	tiny bool
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * time.Second }

func nproc() int { return runtime.NumCPU() }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run: what the last line prints, and what -out records so
// that two runs can be compared with -agree.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	NProc     int                  `json:"nproc"`
	GoVersion string               `json:"go_version"`
	Conns     int                  `json:"conns"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]metric    `json:"metrics"`
	Extras    map[string]metric    `json:"extras,omitempty"`
	Counts    map[string]int       `json:"counts,omitempty"`
	Segments  map[string][]float64 `json:"segments,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
}

func newResult(workload string, cfg runConfig) *result {
	return &result{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: nproc(), GoVersion: runtime.Version(),
		Metrics: map[string]metric{}, Extras: map[string]metric{},
		Counts: map[string]int{}, Segments: map[string][]float64{},
	}
}

// set records a metric that BENCHMARK.json names; its unit comes from the
// one table in metrics.go.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in metrics.go")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// extra records a value that is printed and saved but that BENCHMARK.json
// does not name.
func (r *result) extra(name string, v float64, unit string) {
	r.Extras[name] = metric{Value: v, Unit: unit}
}

func (r *result) problem(msg string) { r.Problems = append(r.Problems, msg) }

// finish fills every metric of the run's kind that the workload did not
// produce with 0, and settles correctness.
func (r *result) finish() {
	names := endToEndMetrics
	if r.Trace {
		names = perLayerMetrics
	}
	for _, m := range names {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// print writes the human-readable table and, last, the one JSON line.
func (r *result) print() error {
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v  nproc %d  conns %d  %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.NProc, r.Conns, r.GoVersion)
	printMetrics := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, n := range names {
			fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics("metrics:", r.Metrics)
	printMetrics("also measured (not in BENCHMARK.json):", r.Extras)
	for _, p := range r.Problems {
		fmt.Println("PROBLEM:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *result) writeFile(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runWorkload dispatches one run.
func runWorkload(env *environment, name string, cfg runConfig) (*result, error) {
	_, serving := servingSpecs[name]
	var res *result
	var err error
	switch {
	case serving && cfg.trace:
		res, err = traceServing(env, name, cfg)
	case serving:
		res, err = runServing(env, name, cfg)
	case name == "verify_corpus" && cfg.trace:
		res, err = traceVerify(cfg)
	case name == "verify_corpus":
		res, err = runVerify(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

func main() {
	// Servers are spawned from this goroutine with Pdeathsig set; pinning it
	// to the main thread ties that signal to the death of the process, not
	// of some worker thread.
	runtime.LockOSThread()
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end run on real processes; 1: traced per-layer run")
	out := flag.String("out", "", "also write the full result (segments, counts, spans) to this file")
	agree := flag.Bool("agree", false, "compare two result files or directories, given as arguments, against the bounds in BENCHMARK.json")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -agree takes two result files or directories")
			return 2
		}
		ok, err := agreeCmd(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *seconds < 1 || *workload == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need --workload, --seconds >= 1 and --trace 0 or 1")
		return 2
	}

	env, err := newEnvironment()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// On a signal the deferred teardown cannot run; the servers die with
	// this process (Pdeathsig), and the run directory is removed here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.cleanup()
		os.Exit(130)
	}()

	started := time.Now()
	res, err := runWorkload(env, *workload, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
	env.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.extra("run_wall_s", time.Since(started).Seconds(), "s")
	if *out != "" {
		if err := res.writeFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := res.print(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
