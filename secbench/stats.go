package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of exact values by
// linear interpolation between the closest ranks (the "type 7" rule
// of R and NumPy). vals need not be sorted and is left untouched.
// An empty input yields 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) || frac == 0 || s[lo] == s[lo+1] { // the last keeps Inf-Inf from giving NaN
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// caseQuantile is the q-quantile, across cases, of each case's median
// over repetitions: one slow repetition of one case moves it less
// than it moves a quantile over all samples.
func caseQuantile(byCase map[string][]float64, q float64) float64 {
	meds := make([]float64, 0, len(byCase))
	for _, v := range byCase {
		meds = append(meds, median(v))
	}
	return quantile(meds, q)
}

// tailPermille are the candidate tail percentiles in tenths of a
// percent, highest first (integers, so "ten samples beyond" is exact).
var tailPermille = []int{999, 990, 900, 500}

// tailPercentile is the highest percentile in tailPermille that has
// at least ten samples beyond it out of n; with fewer than twenty
// samples it falls back to the median (reported with its count, so a
// reader sees how thin the tail is).
func tailPercentile(n int) float64 {
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b with 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
