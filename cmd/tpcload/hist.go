package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram: 64 power-of-two major buckets,
// each split into 32 linear minor buckets, covering 1ns to ~9.2s-per-op
// scales with bounded (<~3.2%) relative quantile error and constant
// memory. The load generator records per-operation latencies into it and
// reads p50/p99/p999 out; it is deliberately not mergeable-with-decay or
// windowed — tpcload reports whole-run quantiles.
type hist struct {
	counts [64 * 32]uint64
	total  uint64
	min    int64
	max    int64
}

// histBucket maps a nanosecond latency to its bucket index.
func histBucket(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	major := bits.Len64(uint64(ns)) - 1 // floor(log2)
	if major < 5 {
		// Values below 32ns land in the linear prefix.
		return int(ns)
	}
	minor := int((uint64(ns) >> (uint(major) - 5)) & 31)
	return major*32 + minor
}

// histValue returns the representative (lower-bound) latency of a bucket.
func histValue(idx int) int64 {
	major := idx / 32
	minor := idx % 32
	if major < 1 {
		return int64(idx)
	}
	return (1 << uint(major)) + int64(minor)<<(uint(major)-5)
}

// Record adds one latency sample.
func (h *hist) Record(d time.Duration) {
	ns := d.Nanoseconds()
	h.counts[histBucket(ns)]++
	h.total++
	if h.total == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Count returns the number of recorded samples.
func (h *hist) Count() uint64 { return h.total }

// Merge folds another histogram's samples into this one (exact: the
// bucket layout is shared, so counts add; extremes take the wider span).
// Per-worker histograms merge into the run-wide one this way.
func (h *hist) Merge(o *hist) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
}

// Min and Max return the exact extremes of the recorded samples.
func (h *hist) Min() time.Duration { return time.Duration(h.min) }
func (h *hist) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the latency at quantile q in [0, 1] (0.5 = p50). The
// answer is the lower bound of the bucket holding the q-th sample,
// clamped to the exact observed extremes; an empty histogram returns 0.
func (h *hist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := histValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}
