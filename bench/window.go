package main

import (
	"sort"
	"time"
)

// Reducing a window to its metrics on a machine that is not quiet.
//
// The reference box is a 2-vCPU virtual machine whose speed flips, every
// few seconds, between full and roughly half (a fixed spin loop takes 74 ms
// or 140 ms; see README.md). A median over the whole window then lands on
// whichever state held the majority, and run-to-run spreads of 25-30 %
// bury any change worth measuring. So the window is cut into short slices
// and the timing metrics are computed over its quiet fifth: the fifth of the
// slices in which the median latency was lowest. That estimates what the
// system does when nothing outside it interferes, it is computed the same
// way on every commit, and stalls shorter than a slice — a GC pause, a slow
// fsync — still count. The whole-window figures are printed beside it.

const (
	// sliceLen is the length of one slice of the window.
	sliceLen = 500 * time.Millisecond
	// quietShare is the share of the slices the timing metrics are
	// computed over.
	quietShare = 0.2
	// rssAtTxns is the number of committed window transactions at which
	// the coordinator's resident set is read off. The coordinator retains
	// memory per transaction, so a reading at a fixed count is comparable
	// between a fast run and a slow one; a reading at a fixed time is not.
	rssAtTxns = 4000
)

// sampler reads the servers' CPU time and the coordinator's resident set
// at every slice boundary of the window.
type sampler struct {
	pids   []int
	slices int
	cpu    []float64 // cumulative CPU seconds of all servers, slices+1 readings
	rss    []float64 // coordinator VmRSS in MB, slices+1 readings
	err    error
}

func newSampler(pids []int, window time.Duration) *sampler {
	n := int(window / sliceLen)
	if n < 1 {
		n = 1
	}
	return &sampler{pids: pids, slices: n}
}

// run blocks until the window is over.
func (s *sampler) run(start time.Time) {
	for k := 0; k <= s.slices; k++ {
		if d := time.Until(start.Add(time.Duration(k) * sliceLen)); d > 0 {
			time.Sleep(d)
		}
		cpu, err := cpuSeconds(s.pids)
		if err != nil {
			s.err = err
			return
		}
		rss, err := rssMB(s.pids[0])
		if err != nil {
			s.err = err
			return
		}
		s.cpu = append(s.cpu, cpu)
		s.rss = append(s.rss, rss)
	}
}

// slice is what one slice of the window held.
type slice struct {
	lat []float64 // latencies in ms of the transactions that completed in it
	cpu float64   // CPU seconds the servers used in it (0 without a sampler)
}

// cutSlices sorts the window's samples into n slices by completion time;
// a transaction that finished after the window closed is in none.
func cutSlices(samples []sample, n int) []slice {
	out := make([]slice, n)
	for _, s := range samples {
		if i := int(s.done / sliceLen); i < n {
			out[i].lat = append(out[i].lat, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}

// quietSlices returns the indices of the quiet fifth: the slices with the
// lowest median latency, among those that completed anything.
func quietSlices(slices []slice) []int {
	type ranked struct {
		i   int
		p50 float64
	}
	var rs []ranked
	for i, s := range slices {
		if len(s.lat) > 0 {
			rs = append(rs, ranked{i, quantile(s.lat, 0.5)})
		}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].p50 < rs[b].p50 })
	n := int(float64(len(slices))*quietShare + 0.999)
	if n > len(rs) {
		n = len(rs)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = rs[i].i
	}
	return out
}

// quietP50 is the median latency over the quiet fifth of a window.
func quietP50(samples []sample, window time.Duration) float64 {
	n := int(window / sliceLen)
	if n < 1 {
		n = 1
	}
	slices := cutSlices(samples, n)
	var pooled []float64
	for _, i := range quietSlices(slices) {
		pooled = append(pooled, slices[i].lat...)
	}
	return quantile(pooled, 0.5)
}

// summarizeWindow reduces a window to the timing metrics, over its quiet
// fifth, and records the whole-window figures beside them.
func summarizeWindow(res *result, load *loadResult, smp *sampler, openLoop bool) {
	n := smp.slices
	slices := cutSlices(load.samples, n)
	for i := range slices {
		slices[i].cpu = smp.cpu[i+1] - smp.cpu[i]
	}
	quiet := quietSlices(slices)

	var pooled, all []float64
	var rates, p50s, cpus []float64
	quietOps, quietCPU, allOps := 0, 0.0, 0
	for _, s := range slices {
		all = append(all, s.lat...)
		allOps += len(s.lat)
		rates = append(rates, float64(len(s.lat))/sliceLen.Seconds())
		p50s = append(p50s, quantile(s.lat, 0.5))
		cpus = append(cpus, s.cpu)
	}
	for _, i := range quiet {
		pooled = append(pooled, slices[i].lat...)
		quietOps += len(slices[i].lat)
		quietCPU += slices[i].cpu
	}
	res.Segments["slice_ops_per_s"] = rates
	res.Segments["slice_op_p50_ms"] = p50s
	res.Segments["slice_cpu_s"] = cpus
	res.Segments["slice_rss_mb"] = smp.rss
	res.Counts["slices"] = n
	res.Counts["quiet_slices"] = len(quiet)

	sort.Float64s(pooled)
	sort.Float64s(all)
	res.set("ops_per_s", float64(quietOps)/(float64(len(quiet))*sliceLen.Seconds()))
	if openLoop {
		// On a fixed schedule the count per slice is the schedule's own; the
		// achieved rate is the arrivals over the time it took to answer
		// them all.
		last := time.Duration(0)
		for _, s := range load.samples {
			if s.done > last {
				last = s.done
			}
		}
		res.set("ops_per_s", float64(len(load.samples))/last.Seconds())
	}
	res.set("op_p50_ms", quantileSorted(pooled, 0.5))
	// The bounded tail metric is p90: over ten runs p99 and p99.9 do not
	// repeat to within 25 % on the reference box (README.md), so they are
	// printed but carry no bound.
	res.set("op_p90_ms", quantileSorted(pooled, 0.9))
	res.extra("op_p99_ms", quantileSorted(pooled, 0.99), "ms")
	res.set("cpu_ms_per_op", quietCPU*1000/float64(quietOps))
	res.set("rss_mb", rssAt(smp.rss, slices, rssAtTxns))

	window := time.Duration(n) * sliceLen
	res.extra("window.ops_per_s", float64(allOps)/window.Seconds(), "1/s")
	res.extra("window.op_p50_ms", quantileSorted(all, 0.5), "ms")
	res.extra("window.op_p99_ms", quantileSorted(all, 0.99), "ms")
	res.extra("window.op_p999_ms", quantileSorted(all, 0.999), "ms")
	res.extra("window.op_max_ms", quantileSorted(all, 1), "ms")
	res.extra("window.cpu_ms_per_op", (smp.cpu[n]-smp.cpu[0])*1000/float64(allOps), "ms")
	res.extra("window.rss_end_mb", smp.rss[n], "MB")

	// Per transaction type, over the same quiet slices.
	byKind := make([][]float64, numKinds)
	isQuiet := map[int]bool{}
	for _, i := range quiet {
		isQuiet[i] = true
	}
	for _, s := range load.samples {
		if isQuiet[int(s.done/sliceLen)] {
			byKind[s.kind] = append(byKind[s.kind], float64(s.lat)/float64(time.Millisecond))
		}
	}
	for k := txnKind(0); k < numKinds; k++ {
		res.extra(k.String()+"_p50_ms", quantile(byKind[k], 0.5), "ms")
	}
}

// rssAt reads the resident set off at the moment the window's at-th
// transaction committed, interpolating between the two slice boundaries
// around it; a window that committed fewer gives its last reading.
func rssAt(rss []float64, slices []slice, at int) float64 {
	done := 0
	for i, s := range slices {
		if done+len(s.lat) >= at {
			f := float64(at-done) / float64(len(s.lat))
			return rss[i] + f*(rss[i+1]-rss[i])
		}
		done += len(s.lat)
	}
	return rss[len(rss)-1]
}
