package main

import (
	"testing"
	"time"
)

func TestHistEmpty(t *testing.T) {
	var h hist
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty hist: count=%d p50=%v", h.Count(), h.Quantile(0.5))
	}
}

func TestHistSingleSample(t *testing.T) {
	var h hist
	h.Record(250 * time.Microsecond)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		if got != 250*time.Microsecond {
			t.Errorf("q%.3f = %v, want 250µs exactly (clamped to observed extremes)", q, got)
		}
	}
}

// TestHistQuantileAccuracy records a known uniform ramp and checks every
// quantile lands within the structure's ~3.2% relative error bound.
func TestHistQuantileAccuracy(t *testing.T) {
	var h hist
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := time.Duration(q*n) * time.Microsecond
		got := h.Quantile(q)
		lo := time.Duration(float64(want) * 0.93)
		hi := time.Duration(float64(want) * 1.01)
		if got < lo || got > hi {
			t.Errorf("q%.3f = %v, want within [%v, %v]", q, got, lo, hi)
		}
	}
	if h.Min() != time.Microsecond || h.Max() != n*time.Microsecond {
		t.Errorf("extremes = [%v, %v], want [1µs, %v]", h.Min(), h.Max(), n*time.Microsecond)
	}
}

// TestHistMonotone pins that quantiles never decrease as q rises.
func TestHistMonotone(t *testing.T) {
	var h hist
	for i := 0; i < 10_000; i++ {
		h.Record(time.Duration(1+(i*i)%977) * time.Millisecond / 10)
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%.2f gives %v after %v", q, v, prev)
		}
		prev = v
	}
}
