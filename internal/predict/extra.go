package predict

import (
	"fmt"
	"math"
)

// This file implements the additional predictors the paper ships alongside
// its spline predictor ("we provide implementations of multiple
// state-of-the-art open sourced prediction algorithms that can be used
// instead of our predictor"): seasonal-naive, moving average, Holt-Winters
// triple exponential smoothing, and AR(p) via Yule-Walker / Levinson-Durbin.
// All implement Predictor and can be padded with NewPadded.

// SeasonalNaive forecasts each future interval as the value observed one
// season ago (e.g. 24 h for diurnal web traffic). Before a full season is
// observed it behaves reactively.
type SeasonalNaive struct {
	// Period is the season length in intervals (e.g. 24 for hourly data).
	Period  int
	history []float64
}

// Observe implements Predictor.
func (s *SeasonalNaive) Observe(v float64) {
	s.history = append(s.history, v)
	// Bound memory: two seasons suffice.
	if s.Period > 0 && len(s.history) > 2*s.Period {
		s.history = s.history[len(s.history)-2*s.Period:]
	}
}

// Predict implements Predictor.
func (s *SeasonalNaive) Predict(h int) []float64 {
	out := make([]float64, h)
	n := len(s.history)
	if n == 0 {
		return out
	}
	for k := 0; k < h; k++ {
		if s.Period > 0 && n >= s.Period {
			// Index of the same phase one season earlier.
			idx := n - s.Period + (k % s.Period)
			if idx < n {
				out[k] = s.history[idx]
				continue
			}
		}
		out[k] = s.history[n-1]
	}
	return out
}

// MovingAverage forecasts the mean of the last Window observations.
type MovingAverage struct {
	Window  int
	history []float64
	sum     float64
}

// Observe implements Predictor.
func (m *MovingAverage) Observe(v float64) {
	w := m.Window
	if w <= 0 {
		w = 24
	}
	m.history = append(m.history, v)
	m.sum += v
	if len(m.history) > w {
		m.sum -= m.history[0]
		m.history = m.history[1:]
	}
}

// Predict implements Predictor.
func (m *MovingAverage) Predict(h int) []float64 {
	out := make([]float64, h)
	if len(m.history) == 0 {
		return out
	}
	avg := m.sum / float64(len(m.history))
	for k := range out {
		out[k] = avg
	}
	return out
}

// HoltWinters is additive triple exponential smoothing: level + trend +
// seasonal components, the classic workload forecaster.
type HoltWinters struct {
	// Period is the season length in intervals.
	Period int

	level, trend float64
	season       []float64
	warm         []float64 // first Period observations for initialization
	initialized  bool
	t            int
}

// The level, trend and season smoothing factors of HoltWinters.
const hwAlpha, hwBeta, hwGamma = 0.3, 0.05, 0.25

// Observe implements Predictor.
func (hw *HoltWinters) Observe(v float64) {
	p := hw.Period
	if p <= 0 {
		p = 24
		hw.Period = p
	}
	if !hw.initialized {
		hw.warm = append(hw.warm, v)
		if len(hw.warm) < 2*p {
			return
		}
		// Initialize: level = mean of first season, trend = mean one-season
		// difference, season = first-season deviations from its mean.
		var m1, m2 float64
		for i := 0; i < p; i++ {
			m1 += hw.warm[i]
			m2 += hw.warm[p+i]
		}
		m1 /= float64(p)
		m2 /= float64(p)
		hw.level = m2
		hw.trend = (m2 - m1) / float64(p)
		hw.season = make([]float64, p)
		for i := 0; i < p; i++ {
			hw.season[i] = (hw.warm[i] - m1 + hw.warm[p+i] - m2) / 2
		}
		hw.initialized = true
		hw.t = 2 * p
		return
	}
	a, b, g := hwAlpha, hwBeta, hwGamma
	si := hw.t % p
	prevLevel := hw.level
	hw.level = a*(v-hw.season[si]) + (1-a)*(hw.level+hw.trend)
	hw.trend = b*(hw.level-prevLevel) + (1-b)*hw.trend
	hw.season[si] = g*(v-hw.level) + (1-g)*hw.season[si]
	hw.t++
}

// Predict implements Predictor.
func (hw *HoltWinters) Predict(h int) []float64 {
	out := make([]float64, h)
	if !hw.initialized {
		if n := len(hw.warm); n > 0 {
			for k := range out {
				out[k] = hw.warm[n-1]
			}
		}
		return out
	}
	p := hw.Period
	for k := 1; k <= h; k++ {
		f := hw.level + float64(k)*hw.trend + hw.season[(hw.t+k-1)%p]
		if f < 0 {
			f = 0
		}
		out[k-1] = f
	}
	return out
}

// AR is an autoregressive AR(p) predictor fitted by Yule-Walker equations
// solved with Levinson-Durbin recursion over a sliding window.
type AR struct {
	// Order is p (default 3); Window the fitting window (default 336).
	Order, Window int

	history []float64
	coefs   []float64
	mean    float64
	since   int
}

func (ar *AR) order() int {
	if ar.Order > 0 {
		return ar.Order
	}
	return 3
}

func (ar *AR) window() int {
	if ar.Window > 0 {
		return ar.Window
	}
	return 336
}

// Observe implements Predictor.
func (ar *AR) Observe(v float64) {
	ar.history = append(ar.history, v)
	if len(ar.history) > ar.window() {
		ar.history = ar.history[len(ar.history)-ar.window():]
	}
	ar.since++
	if ar.coefs == nil || ar.since >= 24 {
		ar.fit()
		ar.since = 0
	}
}

// fit estimates AR coefficients by Levinson-Durbin on sample
// autocovariances.
func (ar *AR) fit() {
	p := ar.order()
	n := len(ar.history)
	if n < 4*p {
		return
	}
	var mean float64
	for _, x := range ar.history {
		mean += x
	}
	mean /= float64(n)
	// Autocovariances r[0..p].
	r := make([]float64, p+1)
	for lag := 0; lag <= p; lag++ {
		var s float64
		for i := lag; i < n; i++ {
			s += (ar.history[i] - mean) * (ar.history[i-lag] - mean)
		}
		r[lag] = s / float64(n)
	}
	if r[0] <= 0 {
		return
	}
	// Levinson-Durbin.
	a := make([]float64, p+1)
	e := r[0]
	for k := 1; k <= p; k++ {
		acc := r[k]
		for j := 1; j < k; j++ {
			acc -= a[j] * r[k-j]
		}
		if e == 0 {
			return
		}
		kk := acc / e
		a[k] = kk
		for j := 1; j <= k/2; j++ {
			tmp := a[j]
			a[j] -= kk * a[k-j]
			if j != k-j {
				a[k-j] -= kk * tmp
			}
		}
		e *= 1 - kk*kk
		if e < 0 {
			e = 0
		}
	}
	ar.coefs = a[1 : p+1]
	ar.mean = mean
}

// Predict implements Predictor (iterated multi-step forecasts).
func (ar *AR) Predict(h int) []float64 {
	out := make([]float64, h)
	n := len(ar.history)
	if n == 0 {
		return out
	}
	if ar.coefs == nil {
		for k := range out {
			out[k] = ar.history[n-1]
		}
		return out
	}
	p := len(ar.coefs)
	// Working buffer of the last p (demeaned) values, extended by forecasts.
	buf := make([]float64, 0, p+h)
	lo := n - p
	if lo < 0 {
		lo = 0
	}
	for _, x := range ar.history[lo:] {
		buf = append(buf, x-ar.mean)
	}
	for k := 0; k < h; k++ {
		var f float64
		for j := 1; j <= p && j <= len(buf); j++ {
			f += ar.coefs[j-1] * buf[len(buf)-j]
		}
		buf = append(buf, f)
		v := f + ar.mean
		if v < 0 {
			v = 0
		}
		out[k] = v
	}
	return out
}

// ByName constructs a predictor from a short name — the hook the CLI and
// experiments use to swap predictors "out-of-the-box" (§4.3). Supported:
// "spline" (the default SpotWeb predictor with CI padding), "spline-nopad",
// "reactive", "ewma", "seasonal", "ma", "holtwinters", "ar".
func ByName(name string, stepHrs float64, maxHorizon int) (Predictor, error) {
	period := int(24/stepHrs + 0.5)
	switch name {
	case "spline", "":
		return NewSplinePredictor(SplineConfig{StepHrs: stepHrs, ARLag1: true, CIProb: 0.99}, maxHorizon), nil
	case "spline-nopad":
		return NewSplinePredictor(SplineConfig{StepHrs: stepHrs, ARLag1: true}, maxHorizon), nil
	case "reactive":
		return &Reactive{}, nil
	case "ewma":
		return &EWMA{Alpha: 0.3}, nil
	case "seasonal":
		return &SeasonalNaive{Period: period}, nil
	case "ma":
		return &MovingAverage{Window: int(math.Max(4, 6/stepHrs))}, nil
	case "holtwinters":
		return &HoltWinters{Period: period}, nil
	case "ar":
		return &AR{Order: 3, Window: period * 14}, nil
	default:
		return nil, fmt.Errorf("predict: unknown predictor %q", name)
	}
}
