package predict

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Predictor forecasts a time series. Observe is called once per interval in
// order; Predict(h) returns forecasts for the next h intervals.
type Predictor interface {
	Observe(v float64)
	Predict(h int) []float64
}

// SplineConfig tunes the spline workload predictor.
type SplineConfig struct {
	// StepHrs is the sampling interval of the observed series, in hours.
	StepHrs float64
	// ARLag1 enables the AR(1) residual correction the paper uses for small
	// spikes (lag structure one).
	ARLag1 bool
	// CIProb enables confidence-interval padding when > 0: Predict returns
	// the upper bound of the two-sided CIProb confidence interval (paper:
	// 0.99). Zero disables padding (the paper-[1] baseline behaviour).
	CIProb float64
}

const (
	// splineWindowHrs is the moving training window (paper: two weeks).
	splineWindowHrs = 14 * 24
	// splineKnots is the number of spline knots over the 24 h day.
	splineKnots = 9
	// splineRidge is the L2 regularization strength.
	splineRidge = 1e-3
	// splineRefitEvery re-estimates the regression every this many
	// observations, to amortize the fit.
	splineRefitEvery = 24
)

func (c SplineConfig) withDefaults() SplineConfig {
	if c.StepHrs <= 0 {
		c.StepHrs = 1
	}
	return c
}

// SplinePredictor is SpotWeb's workload predictor: a natural cubic
// regression spline over the time-of-day pattern (with weekend and trend
// terms) fitted on a moving window, an AR(1) correction for short-term
// deviations, and optional 99% CI over-provisioning. It implements
// Predictor.
type SplinePredictor struct {
	cfg   SplineConfig
	basis *NaturalSplineBasis
	// history holds all observed values; the trailing window is refitted.
	history []float64
	w       linalg.Vector // fitted weights (nil before first fit)
	phi     float64       // AR(1) coefficient on residuals
	// perHorizonResiduals[h] tracks recent residuals of h+1-step forecasts
	// for CI estimation.
	maxH        int
	pending     [][]float64 // pending[h] = forecasts issued h+1 steps ago
	residuals   [][]float64 // sliding residual windows per horizon
	residualCap int
	sinceFit    int
}

// NewSplinePredictor constructs the predictor. maxHorizon bounds the longest
// Predict(h) that will be requested (for residual bookkeeping).
func NewSplinePredictor(cfg SplineConfig, maxHorizon int) *SplinePredictor {
	c := cfg.withDefaults()
	if maxHorizon < 1 {
		maxHorizon = 1
	}
	return &SplinePredictor{
		cfg:         c,
		basis:       NewNaturalSplineBasis(0, 24, splineKnots),
		maxH:        maxHorizon,
		pending:     make([][]float64, maxHorizon),
		residuals:   make([][]float64, maxHorizon),
		residualCap: 120,
	}
}

// featureDim returns the regression dimensionality.
func (p *SplinePredictor) featureDim() int {
	// spline basis + weekend indicator + weekend×hod + linear trend
	return p.basis.Dim() + 3
}

// features fills dst with the feature vector for absolute interval index t.
func (p *SplinePredictor) features(t int, dst []float64) {
	hr := float64(t) * p.cfg.StepHrs
	hod := math.Mod(hr, 24)
	day := int(hr / 24)
	weekend := 0.0
	if wd := day % 7; wd == 5 || wd == 6 {
		weekend = 1
	}
	p.basis.Eval(hod, dst[:p.basis.Dim()])
	d := p.basis.Dim()
	dst[d] = weekend
	dst[d+1] = weekend * hod / 24
	dst[d+2] = hr / (24 * 7) // slow trend
}

// Observe implements Predictor.
func (p *SplinePredictor) Observe(v float64) {
	// Score pending forecasts against this actual.
	for h := 0; h < p.maxH; h++ {
		q := p.pending[h]
		if len(q) > h {
			forecast := q[0]
			p.pending[h] = q[1:]
			r := forecast - v
			rs := append(p.residuals[h], r)
			if len(rs) > p.residualCap {
				rs = rs[len(rs)-p.residualCap:]
			}
			p.residuals[h] = rs
		}
	}
	p.history = append(p.history, v)
	p.sinceFit++
	if p.w == nil || p.sinceFit >= splineRefitEvery {
		p.fit()
		p.sinceFit = 0
	}
}

// fit refits the spline regression on the trailing window and re-estimates
// the AR(1) coefficient from in-window residuals.
func (p *SplinePredictor) fit() {
	n := len(p.history)
	window := int(splineWindowHrs / p.cfg.StepHrs)
	lo := n - window
	if lo < 0 {
		lo = 0
	}
	rows := n - lo
	// Fitting with barely more rows than features interpolates the noise
	// and produces wild early forecasts; stay reactive until the window
	// holds a few times the regression dimensionality.
	if rows < 3*p.featureDim() {
		return
	}
	x := linalg.NewMatrix(rows, p.featureDim())
	y := linalg.NewVector(rows)
	for i := 0; i < rows; i++ {
		p.features(lo+i, x.Row(i))
		y[i] = p.history[lo+i]
	}
	w, err := RidgeRegression(x, y, splineRidge)
	if err != nil {
		return // keep previous weights
	}
	p.w = w
	// AR(1) on in-window residuals: phi = corr(r_t, r_{t-1}) clipped.
	if p.cfg.ARLag1 && rows > 10 {
		res := make([]float64, rows)
		fx := linalg.NewVector(p.featureDim())
		for i := 0; i < rows; i++ {
			copy(fx, x.Row(i))
			res[i] = y[i] - fx.Dot(w)
		}
		p.phi = stats.Correlation(res[1:], res[:rows-1])
		if p.phi < 0 {
			p.phi = 0
		}
		if p.phi > 0.95 {
			p.phi = 0.95
		}
	}
}

// pointForecast returns the regression forecast for interval t plus the
// AR(1) correction term for horizon h (1-based).
func (p *SplinePredictor) pointForecast(t, h int) float64 {
	if p.w == nil {
		// Reactive fallback before the first fit.
		if len(p.history) == 0 {
			return 0
		}
		return p.history[len(p.history)-1]
	}
	fx := make([]float64, p.featureDim())
	p.features(t, fx)
	pred := linalg.Vector(fx).Dot(p.w)
	if p.cfg.ARLag1 && len(p.history) > 0 {
		// Last residual vs the model.
		last := len(p.history) - 1
		p.features(last, fx)
		r := p.history[last] - linalg.Vector(fx).Dot(p.w)
		pred += math.Pow(p.phi, float64(h)) * r
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// sigma returns the residual standard deviation for horizon h (1-based),
// falling back across horizons and to a fraction of the recent level when
// little scoring history exists.
func (p *SplinePredictor) sigma(h int) float64 {
	for hh := h - 1; hh >= 0; hh-- {
		if hh < len(p.residuals) && len(p.residuals[hh]) >= 20 {
			s := stats.StdDev(p.residuals[hh])
			// Longer horizons inherit shorter-horizon sigma scaled up.
			return s * math.Sqrt(float64(h)/float64(hh+1))
		}
	}
	if len(p.history) == 0 {
		return 0
	}
	return 0.1 * p.history[len(p.history)-1]
}

// Predict implements Predictor: forecasts for intervals t+1..t+h where t is
// the index of the last observed value. With CIProb set, each forecast is
// the upper bound of the two-sided confidence interval.
func (p *SplinePredictor) Predict(h int) []float64 {
	if h < 1 {
		return nil
	}
	t := len(p.history) // next interval index
	out := make([]float64, h)
	for k := 0; k < h; k++ {
		f := p.pointForecast(t+k, k+1)
		raw := f
		if p.cfg.CIProb > 0 {
			z := stats.ZQuantile(0.5 + p.cfg.CIProb/2)
			pad := z * p.sigma(k+1)
			// Guard against transient residual blow-ups: never pad beyond
			// doubling the point forecast.
			if raw > 0 && pad > raw {
				pad = raw
			}
			f += pad
		}
		out[k] = f
		// Record the *point* forecast for residual scoring so the CI is
		// estimated around the regression, not around itself. Pre-fit
		// (reactive-fallback) forecasts are excluded — their large errors
		// would otherwise inflate the padding long after the model trains.
		if k < p.maxH && p.w != nil {
			p.pending[k] = append(p.pending[k], raw)
		}
	}
	return out
}

// Reactive predicts that every future interval equals the current value —
// the paper's baseline assumption for failure probabilities and its
// reference point for Fig. 7(a).
type Reactive struct{ last float64 }

// Observe implements Predictor.
func (r *Reactive) Observe(v float64) { r.last = v }

// Predict implements Predictor.
func (r *Reactive) Predict(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = r.last
	}
	return out
}

// EWMA is an exponentially weighted moving-average predictor used for price
// series: quick to adapt, robust to noise.
type EWMA struct {
	Alpha float64
	val   float64
	init  bool
}

// Observe implements Predictor.
func (e *EWMA) Observe(v float64) {
	if !e.init {
		e.val, e.init = v, true
		return
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.3
	}
	e.val = a*v + (1-a)*e.val
}

// Predict implements Predictor.
func (e *EWMA) Predict(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = e.val
	}
	return out
}

// Oracle returns the true future values of a known series — the evaluation
// uses it where the paper assumes perfect knowledge (Figs. 5, 6(a)).
type Oracle struct {
	Values []float64
	t      int // index of last observed value
}

// Observe implements Predictor (advances the cursor; the value is ignored
// since the oracle already knows the series).
func (o *Oracle) Observe(_ float64) { o.t++ }

// Predict implements Predictor.
func (o *Oracle) Predict(h int) []float64 {
	out := make([]float64, h)
	for k := 0; k < h; k++ {
		i := o.t + k
		if i >= len(o.Values) {
			i = len(o.Values) - 1
		}
		out[k] = o.Values[i]
	}
	return out
}

// NoisyOracle perturbs oracle forecasts with deterministic multiplicative
// noise of controllable relative magnitude — the knob for Fig. 7(a)'s
// savings-vs-accuracy sweep.
type NoisyOracle struct {
	Oracle
	// RelError is the standard deviation of the multiplicative error.
	RelError float64
	seed     uint64
}

// Predict implements Predictor.
func (n *NoisyOracle) Predict(h int) []float64 {
	out := n.Oracle.Predict(h)
	for k := range out {
		// xorshift-based deterministic pseudo-noise keyed on (t, k).
		s := uint64(n.t)*2654435761 + uint64(k)*40503 + n.seed + 12345
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u1 := float64(s%100000)/100000.0 + 1e-9
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u2 := float64(s%100000) / 100000.0
		g := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		out[k] *= 1 + n.RelError*g
		if out[k] < 0 {
			out[k] = 0
		}
	}
	return out
}
