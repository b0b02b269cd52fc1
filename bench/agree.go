package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// -agree compares two sets of runs of the same code, metric by metric,
// against the bounds BENCHMARK.json fixes: the sets agree when neither
// median is worse than the other by more than the metric's bound. It is
// the check behind "two full sets of runs agree within the benchmark's own
// bounds", and the way to tell whether a difference between two commits is
// larger than the benchmark can resolve.

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// loadResults reads one result file, or every *.json result in a directory.
func loadResults(path string) ([]*result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a result file of this benchmark", f)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// runSet is the runs of one workload in one result set.
type runSet []*result

func (s runSet) values(metric string) []float64 {
	var vals []float64
	for _, r := range s {
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

func groupRuns(rs []*result) map[string]runSet {
	out := map[string]runSet{}
	for _, r := range rs {
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	return out
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; it is negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreeCmd compares the result sets at paths a and b and reports whether
// they agree.
func agreeCmd(a, b string) (bool, error) {
	spec, err := loadBenchmarkFile()
	if err != nil {
		return false, err
	}
	ra, err := loadResults(a)
	if err != nil {
		return false, err
	}
	rb, err := loadResults(b)
	if err != nil {
		return false, err
	}
	ga, gb := groupRuns(ra), groupRuns(rb)
	var keys []string
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return false, fmt.Errorf("the two sets share no workload")
	}
	ok := true
	for _, k := range keys {
		sa, sb := ga[k], gb[k]
		fa, fb := sa[0], sb[0]
		fmt.Printf("%s: %d vs %d runs\n", k, len(sa), len(sb))
		if fa.NProc != fb.NProc || fa.GoVersion != fb.GoVersion || fa.Seconds != fb.Seconds {
			fmt.Printf("  NOTE: environments differ: nproc %d/%d, %s/%s, seconds %d/%d\n",
				fa.NProc, fb.NProc, fa.GoVersion, fb.GoVersion, fa.Seconds, fb.Seconds)
		}
		for _, set := range []runSet{sa, sb} {
			for _, r := range set {
				if !r.Correct {
					fmt.Printf("  DISAGREE: a run with seed %d is not correct (%d failed of %d)\n", r.Seed, r.Failed, r.Attempted)
					ok = false
				}
			}
		}
		specs := spec.EndToEnd
		if fa.Trace {
			specs = spec.PerLayer
		}
		for _, m := range specs {
			va, vb := sa.values(m.Name), sb.values(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worst := worseBy(ma, mb, m.Better)
			if w := worseBy(mb, ma, m.Better); w > worst {
				worst = w
			}
			verdict := "no bound"
			if !fa.Trace {
				verdict = "agree"
				if worst > m.Bound {
					verdict = "DISAGREE"
					ok = false
				}
				verdict = fmt.Sprintf("%s (bound %.2f)", verdict, m.Bound)
			}
			fmt.Printf("  %-34s %14.4f %14.4f %-6s apart by %6.3f  %s\n", m.Name, ma, mb, m.Unit, worst, verdict)
		}
	}
	if ok {
		fmt.Println("the two sets agree within the bounds of BENCHMARK.json")
	} else {
		fmt.Println("the two sets DISAGREE")
	}
	return ok, nil
}
