package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	vals := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.99, 39.7},
	}
	for _, c := range cases {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vals[0] != 40 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request (+Inf) must dominate the tail, got %v", got)
	}
	if got := quantile([]float64{1, math.Inf(1), math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("two failed requests must give +Inf, not %v", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {2000, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {5, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
