package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending; an empty
// slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// reportable are the percentiles the harness ever prints, ascending.
var reportable = []float64{50, 75, 90, 95, 99, 99.9}

// topPercentile returns the highest reportable percentile that still has at
// least ten samples beyond it among n samples (the choosing-metrics rule), or
// 0 when even the median has fewer than ten samples above it.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range reportable {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			top = p
		}
	}
	return top
}

// timing is a set of duration samples in one unit (the caller's choice).
type timing []float64

// sorted returns an ascending copy.
func (t timing) sorted() []float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return s
}

// pct returns the p-th percentile of the samples.
func (t timing) pct(p float64) float64 { return percentile(t.sorted(), p) }

// max returns the largest sample (0 when empty).
func (t timing) max() float64 {
	m := 0.0
	for _, v := range t {
		if v > m {
			m = v
		}
	}
	return m
}

// sum returns the total of the samples.
func (t timing) sum() float64 {
	s := 0.0
	for _, v := range t {
		s += v
	}
	return s
}

// mean returns the arithmetic mean (0 when empty).
func (t timing) mean() float64 {
	if len(t) == 0 {
		return 0
	}
	return t.sum() / float64(len(t))
}

// median is pct(50).
func (t timing) median() float64 { return t.pct(50) }

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
