package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50}, {100, 90, 90, 10}, {100, 99, 99, 1},
		{20, 90, 18, 2}, {1, 90, 1, 0}, {1000, 99.9, 999, 1},
	} {
		v, beyond := percentile(seq(tc.n), tc.p)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d p%g: got %g with %d beyond, want %g with %d", tc.n, tc.p, v, beyond, tc.want, tc.wantBeyond)
		}
	}
}

// The picker reports the highest percentile with at least ten samples
// beyond it.
func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{19, 0, false}, // even the median has only 9 beyond
		{20, 50, true},
		{99, 50, true}, // p90 of 99 has 9 beyond
		{100, 90, true},
		{999, 90, true}, // p99 of 999 has 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, _, ok := highestSupported(seq(tc.n))
		if ok != tc.ok || p != tc.wantP {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.wantP, tc.ok)
		}
	}
}

// Reference values from Python: statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 2, 38, 23, 38, 23, 21, 15, 7, 9}, 8.5, 18, 26.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

// One slow stretch must not move the segment-median rate.
func TestSegmentRate(t *testing.T) {
	var ends []float64
	now := 0.0
	for i := 0; i < 100; i++ {
		step := 0.01
		if i >= 40 && i < 60 {
			step = 0.05 // a burst slows the middle fifth fivefold
		}
		now += step
		ends = append(ends, now)
	}
	if got := segmentRate(ends); math.Abs(got-100) > 1e-6 {
		t.Errorf("segment rate %g, want the undisturbed 100/s", got)
	}
	if got := segmentRate([]float64{0.5, 1, 1.5}); math.Abs(got-2) > 1e-9 {
		t.Errorf("fewer ops than segments: got %g, want ops over wall = 2", got)
	}
}
