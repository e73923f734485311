// Package stats provides the descriptive-statistics substrate shared by the
// predictors, the simulator's metrics pipeline, and the experiment harness:
// quantiles, histograms, five-number (boxplot) summaries, normal fits,
// covariance/correlation estimation, and forecast-error metrics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics if xs is empty or q is
// outside [0, 1]. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Quantiles returns several quantiles of xs with a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: Quantiles of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// FiveNum is a boxplot five-number summary plus the mean and sample count.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of xs. It panics on empty input.
func Summarize(xs []float64) FiveNum {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return FiveNum{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// String renders the summary as a compact boxplot row.
func (f FiveNum) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		f.N, f.Min, f.Q1, f.Median, f.Q3, f.Max, f.Mean)
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi].
//
// Not safe for concurrent use: Observe and the readers must be externally
// synchronized. For a concurrent-safe latency histogram with atomic
// observation, use metrics.Histogram (internal/metrics).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count samples outside [Lo, Hi].
	Under, Over int
	total       int
}

// NewHistogram builds a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram spec")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Observe records a single sample.
func (h *Histogram) Observe(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		if x == h.Hi {
			h.Counts[len(h.Counts)-1]++
			return
		}
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// BinCenters returns the center x-value of each bin.
func (h *Histogram) BinCenters() []float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	out := make([]float64, len(h.Counts))
	for i := range out {
		out[i] = h.Lo + w*(float64(i)+0.5)
	}
	return out
}

// Densities returns each bin's fraction of total samples.
func (h *Histogram) Densities() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// NormalFit is a fitted normal distribution.
type NormalFit struct {
	Mu, Sigma float64
}

// FitNormal fits a normal distribution by moments.
func FitNormal(xs []float64) NormalFit {
	return NormalFit{Mu: Mean(xs), Sigma: StdDev(xs)}
}

// ZQuantile returns the standard-normal quantile for probability p using the
// Acklam rational approximation (|error| < 1.15e-9), sufficient for the
// 99% confidence-interval padding SpotWeb applies to workload forecasts.
func ZQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: ZQuantile p=%v outside (0,1)", p))
	}
	// Coefficients for the Acklam inverse-normal approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	// Every product is rounded before its sum (float64()), so no GOARCH
	// fuses the Horner steps.
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (float64((float64((float64((float64((float64(c[0]*q)+c[1])*q)+c[2])*q)+c[3])*q)+c[4])*q) + c[5]) /
			(float64((float64((float64((float64(d[0]*q)+d[1])*q)+d[2])*q)+d[3])*q) + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(float64((float64((float64((float64((float64(c[0]*q)+c[1])*q)+c[2])*q)+c[3])*q)+c[4])*q) + c[5]) /
			(float64((float64((float64((float64(d[0]*q)+d[1])*q)+d[2])*q)+d[3])*q) + 1)
	default:
		q := p - 0.5
		r := q * q
		return (float64((float64((float64((float64((float64(a[0]*r)+a[1])*r)+a[2])*r)+a[3])*r)+a[4])*r) + a[5]) * q /
			(float64((float64((float64((float64((float64(b[0]*r)+b[1])*r)+b[2])*r)+b[3])*r)+b[4])*r) + 1)
	}
}

// MAPE returns the mean absolute percentage error (skipping zero actuals).
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: MAPE length mismatch")
	}
	var s float64
	n := 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Covariance returns the unbiased sample covariance of paired series x, y.
func Covariance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Covariance length mismatch")
	}
	n := len(x)
	if n < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var s float64
	for i := range x {
		s += float64((x[i] - mx) * (y[i] - my)) // float64(): never fused, on any GOARCH
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation of x and y, or 0 when either
// series is constant.
func Correlation(x, y []float64) float64 {
	sx, sy := StdDev(x), StdDev(y)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(x, y) / (sx * sy)
}

// RelativeErrors returns (pred−actual)/actual element-wise, skipping entries
// with zero actual. Positive values mean over-prediction (over-provisioning
// in SpotWeb's Fig. 4(c)/(d) convention).
func RelativeErrors(pred, actual []float64) []float64 {
	if len(pred) != len(actual) {
		panic("stats: RelativeErrors length mismatch")
	}
	out := make([]float64, 0, len(pred))
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		out = append(out, (pred[i]-actual[i])/actual[i])
	}
	return out
}
