package main

import (
	"math"
	"sort"
)

// The benchmark owns its quantile code on purpose: a later edit to
// internal/benchsuite.Hist must not be able to change what is measured.

// quantile returns the q-quantile (0..1) of vals by the nearest-rank rule
// on a sorted copy; it returns 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle value (mean of the two middle values for an even
// count), the statistic every reported timing reduces to.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
