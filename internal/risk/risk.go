// Package risk is the online estimation layer between the revocation event
// journal and the MPO planner. The planner otherwise consumes
// catalog-declared failure probabilities as gospel; production spot markets
// drift, go stale, or lie outright. This package watches what actually
// happens — revocation warnings over observed instance-intervals and the
// live price stream — and publishes a corrected, confidence-widened failure
// probability per market as a catalog overlay the planner pulls before
// every receding-horizon solve.
//
// Three components:
//
//  1. Per-market revocation-rate estimators: exponentially-decayed event
//     counters K_i (revocation events) over decayed exposure N_i (intervals
//     the market held live servers), smoothed toward the catalog prior with
//     a Beta posterior — prior Beta(s·p0, s·(1−p0)) from the declared
//     probability p0 and prior strength s, posterior Beta(s·p0+K,
//     s·(1−p0)+N−K). Cold markets (N≈0) fall back gracefully to the prior;
//     hot markets are dominated by observation. Markets in the same demand
//     pool share partially pooled counts (revocation surges are
//     group-correlated, so group evidence is evidence about each member).
//
//  2. Price-process changepoint detection: a two-sided CUSUM over
//     standardized price innovations per market. A regime shift discards
//     most of the decayed history (the old rate estimate described the old
//     regime), widening the credible interval back toward the prior, and
//     bumps the overlay Epoch so warm-started solvers drop cached state.
//
//  3. Confidence widening: the published probability is the upper credible
//     bound of the posterior at a configurable quantile, so thinly observed
//     markets look risky in proportion to their uncertainty.
//
// A nil *Estimator is a no-op at every method, matching the nil-injector
// convention of internal/chaos and internal/metrics: the simulator and
// daemon hot paths pay nothing when risk scoring is disabled.
package risk

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Config parameterizes an Estimator. The zero value selects usable
// defaults everywhere, and so does a NaN or ±Inf field: every number must be
// finite, as runcfg.RunConfig.Validate requires of a run's.
type Config struct {
	// Quantile is the upper-credible-bound level published in the overlay
	// (default 0.90). Higher = more conservative toward thin evidence.
	Quantile float64
	// HalfLifeHrs is the half-life of the exponential decay applied to the
	// event and exposure counters (default 24 catalog-hours): after one
	// half-life without new evidence, half the effective sample is
	// forgotten and the posterior drifts back toward the prior.
	HalfLifeHrs float64
	// PoolWeight in [0,1] shrinks each market's counts toward its demand
	// pool's totals: 1 = fully pooled. 0 selects the default 0.5; a negative
	// finite value means 0, fully per-market, and one above 1 means 1.
	PoolWeight float64
	// Changepoint tunes the CUSUM detector.
	Changepoint ChangepointConfig
	// Metrics, when set, receives the spotweb_risk_* series.
	Metrics *metrics.Registry
}

// withDefaults replaces each unset, out-of-range or non-finite field by its
// default. The range checks are written so that NaN, which fails every
// comparison, fails them too.
func (c Config) withDefaults() Config {
	if !(c.Quantile > 0 && c.Quantile < 1) {
		c.Quantile = 0.90
	}
	if !positiveFinite(c.HalfLifeHrs) {
		c.HalfLifeHrs = 24
	}
	switch {
	case c.PoolWeight == 0 || math.IsNaN(c.PoolWeight) || math.IsInf(c.PoolWeight, 0):
		c.PoolWeight = 0.5
	case c.PoolWeight < 0:
		c.PoolWeight = 0
	case c.PoolWeight > 1:
		c.PoolWeight = 1
	}
	c.Changepoint = c.Changepoint.withDefaults()
	return c
}

const (
	// priorStrength is the prior's weight in pseudo-intervals of exposure:
	// the declared probability counts as this many observed intervals, so
	// roughly priorStrength observed intervals of live evidence are needed
	// before observation outweighs the catalog.
	priorStrength = 8
	// maxFailProb caps published probabilities.
	maxFailProb = 0.9
)

// positiveFinite reports whether v is in (0, +Inf); NaN is not.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Estimator tracks per-market revocation evidence against a declared
// catalog and publishes a market.Overlay of corrected probabilities. Safe
// for concurrent use: daemons feed it from a journal goroutine while the
// planner pulls overlays from the control loop; the simulator calls it
// synchronously. All methods no-op on a nil receiver.
type Estimator struct {
	mu  sync.Mutex
	cfg Config
	cat *market.Catalog

	n       int
	decay   float64   // per-interval counter decay factor
	k       []float64 // decayed revocation-event counts
	x       []float64 // decayed exposed-interval counts
	pending []bool    // revocation seen since the last ObserveInterval
	cp      []cusum
	// pool[i] is transient market i's demand pool as an index into gk and
	// gx, the per-pool totals buildOverlayLocked accumulates.
	pool   []int
	gk, gx []float64
	// last holds each market's last posterior shape and its quantile, before
	// the maxFailProb cap (posteriorLocked).
	last []lastQuantile
	// quantiles, when set, shares posterior quantiles with other estimators.
	quantiles *Quantiles

	t            int // latest observed interval
	version      uint64
	epoch        uint64
	injected     int64
	changepoints int64

	overlay atomic.Pointer[market.Overlay]

	mFail, mDiv, mExposure []*metrics.Gauge
	cEvents, cChangepoints *metrics.Counter
}

// New returns an estimator over the declared catalog (the priors). The
// catalog also fixes the interval length: one ObserveInterval call advances
// the decay clock by cat.StepHrs hours.
func New(cfg Config, declared *market.Catalog) *Estimator {
	cfg = cfg.withDefaults()
	n := declared.Len()
	step := declared.StepHrs
	if step <= 0 {
		step = 1
	}
	e := &Estimator{
		cfg:     cfg,
		cat:     declared,
		n:       n,
		decay:   math.Exp2(-step / cfg.HalfLifeHrs),
		k:       make([]float64, n),
		x:       make([]float64, n),
		pending: make([]bool, n),
		cp:      make([]cusum, n),
		pool:    make([]int, n),
		last:    make([]lastQuantile, n),
	}
	// Pools are numbered in order of first appearance, so any group labels
	// (sparse, negative) map onto dense slices sized once here.
	slot := map[int]int{}
	for i, m := range declared.Markets {
		if !m.Transient {
			continue
		}
		s, ok := slot[m.Group]
		if !ok {
			s = len(slot)
			slot[m.Group] = s
		}
		e.pool[i] = s
	}
	e.gk, e.gx = make([]float64, len(slot)), make([]float64, len(slot))
	// Handle slices stay allocated even without a registry: nil handles
	// no-op on use, keeping buildOverlayLocked branch-free.
	e.mFail = make([]*metrics.Gauge, n)
	e.mDiv = make([]*metrics.Gauge, n)
	e.mExposure = make([]*metrics.Gauge, n)
	if reg := cfg.Metrics; reg != nil {
		for i, m := range declared.Markets {
			if !m.Transient {
				continue
			}
			lbl := metrics.L("market", metrics.Itoa(i))
			e.mFail[i] = reg.Gauge("spotweb_risk_fail_prob",
				"Estimated per-interval revocation probability (upper credible bound).", lbl)
			e.mDiv[i] = reg.Gauge("spotweb_risk_divergence",
				"Estimated minus catalog-declared revocation probability.", lbl)
			e.mExposure[i] = reg.Gauge("spotweb_risk_exposure_intervals",
				"Decayed effective exposure sample size (market-intervals).", lbl)
		}
		e.cEvents = reg.Counter("spotweb_risk_events_total",
			"Revocation events consumed by the risk estimator.")
		e.cChangepoints = reg.Counter("spotweb_risk_changepoints_total",
			"Price-process regime shifts detected; each resets that market's estimator window.")
	}
	e.overlay.Store(e.buildOverlayLocked())
	return e
}

// ObserveRevocation records one revocation warning for a market. Multiple
// events for the same market within one interval count as a single
// market-interval Bernoulli success (that is the event the catalog's
// per-interval probability describes).
func (e *Estimator) ObserveRevocation(mkt int, injected bool) {
	if e == nil || mkt < 0 || mkt >= e.n {
		return
	}
	e.mu.Lock()
	e.pending[mkt] = true
	if injected {
		e.injected++
	}
	e.mu.Unlock()
	e.cEvents.Inc()
}

// ObserveInterval closes out one catalog interval t: decays the counters,
// folds in the revocations observed since the previous call, runs the
// changepoint detector on the price snapshot, and publishes a fresh
// overlay. exposed[i] reports whether market i held live servers this
// interval (nil = derive exposure from revocations alone); prices is the
// current per-market price snapshot (nil = skip changepoint detection).
func (e *Estimator) ObserveInterval(t int, exposed []bool, prices []float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.t = t
	shifted := false
	for i := 0; i < e.n; i++ {
		e.k[i] *= e.decay
		e.x[i] *= e.decay
		if e.pending[i] {
			e.k[i]++
			e.x[i]++
			e.pending[i] = false
		} else if i < len(exposed) && exposed[i] {
			e.x[i]++
		}
		if i < len(prices) && e.cat.Markets[i].Transient {
			if e.cp[i].observe(prices[i], e.cfg.Changepoint) {
				// Regime shift: the accumulated evidence described the old
				// regime. Forget most of it so the posterior widens back
				// toward the prior, and bump the epoch (no planner reads it:
				// warm state survives an epoch, ROADMAP item 25(e)).
				e.k[i] *= e.cfg.Changepoint.Forget
				e.x[i] *= e.cfg.Changepoint.Forget
				e.changepoints++
				shifted = true
				e.cChangepoints.Inc()
			}
		}
	}
	if shifted {
		e.epoch++
	}
	e.version++
	ov := e.buildOverlayLocked()
	e.mu.Unlock()
	e.overlay.Store(ov)
}

// buildOverlayLocked recomputes the published overlay; e.mu must be held.
func (e *Estimator) buildOverlayLocked() *market.Overlay {
	fail := make([]float64, e.n)
	// Group-pooled totals: surges hit whole demand pools, so pool evidence
	// partially (PoolWeight) informs every member. Each total is summed in
	// ascending market order.
	clear(e.gk)
	clear(e.gx)
	for i, m := range e.cat.Markets {
		if m.Transient {
			e.gk[e.pool[i]] += e.k[i]
			e.gx[e.pool[i]] += e.x[i]
		}
	}
	for i, m := range e.cat.Markets {
		if !m.Transient {
			fail[i] = -1
			continue
		}
		_, ucb := e.posteriorLocked(i, e.gk[e.pool[i]], e.gx[e.pool[i]])
		fail[i] = ucb
		declared := m.FailProbAt(e.t)
		e.mFail[i].Set(ucb)
		e.mDiv[i].Set(ucb - declared)
		e.mExposure[i].Set(e.x[i])
	}
	return &market.Overlay{FailProb: fail, Version: e.version, Epoch: e.epoch}
}

// posteriorLocked returns the posterior mean and upper credible bound for
// market i given pooled group totals; e.mu must be held. A shape bit-equal to
// the market's last one has the same quantile; any other is bisected from
// near the last (stats.BetaQuantile: the same bits from any guess).
func (e *Estimator) posteriorLocked(i int, gk, gx float64) (mean, ucb float64) {
	a, b := e.shapeLocked(i, gk, gx)
	mean = a / (a + b)
	last := &e.last[i]
	if math.Float64bits(a) != math.Float64bits(last.a) || math.Float64bits(b) != math.Float64bits(last.b) {
		*last = lastQuantile{a, b, e.quantiles.BetaQuantile(e.cfg.Quantile, a, b, last.q)}
	}
	ucb = last.q
	if ucb > maxFailProb {
		ucb = maxFailProb
	}
	return mean, ucb
}

// lastQuantile is a posterior Beta(a, b) and its quantile q.
type lastQuantile struct{ a, b, q float64 }

// shapeLocked returns market i's posterior Beta(a, b) given pooled group
// totals; e.mu must be held.
func (e *Estimator) shapeLocked(i int, gk, gx float64) (a, b float64) {
	w := e.cfg.PoolWeight
	keff := e.k[i] + w*(gk-e.k[i])
	xeff := e.x[i] + w*(gx-e.x[i])
	if keff > xeff {
		xeff = keff
	}
	p0 := e.cat.Markets[i].FailProbAt(e.t)
	if p0 < 1e-5 {
		p0 = 1e-5
	} else if p0 > 0.5 {
		p0 = 0.5
	}
	a = priorStrength*p0 + keff
	b = priorStrength*(1-p0) + (xeff - keff)
	if b < 1e-3 {
		b = 1e-3
	}
	return a, b
}

// ShareQuantiles makes the estimator take its posterior quantiles from q,
// which other estimators may share. Quantiles are a pure function of their
// arguments, so sharing changes no published value; nil computes them
// directly.
func (e *Estimator) ShareQuantiles(q *Quantiles) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.quantiles = q
	e.mu.Unlock()
}

// Quantiles is a memo of stats.BetaQuantile keyed by the bits of (p, a, b).
// Estimators fed identical evidence ask for identical quantiles — a sweep
// seed's risk legs run the same prefix until their first fault — and sharing
// one memo computes each once. Safe for concurrent use; the zero value is
// ready, and a nil *Quantiles computes every quantile directly.
type Quantiles struct {
	mu          sync.Mutex
	memo        map[quantileKey]float64
	calls, hits int64
}

type quantileKey struct{ p, a, b uint64 }

// BetaQuantile returns stats.BetaQuantile(p, a, b), from the memo when any
// estimator sharing it asked before, and otherwise bisected from near guess
// (the same bits for any guess).
func (q *Quantiles) BetaQuantile(p, a, b, guess float64) float64 {
	if q == nil {
		return stats.BetaQuantile(p, a, b, guess)
	}
	k := quantileKey{math.Float64bits(p), math.Float64bits(a), math.Float64bits(b)}
	q.mu.Lock()
	v, ok := q.memo[k]
	q.calls++
	if ok {
		q.hits++
	}
	q.mu.Unlock()
	if ok {
		return v
	}
	// Computed outside the lock: a concurrent miss on the same key computes
	// the same bits and stores them again.
	v = stats.BetaQuantile(p, a, b, guess)
	q.mu.Lock()
	if q.memo == nil {
		q.memo = make(map[quantileKey]float64)
	}
	q.memo[k] = v
	q.mu.Unlock()
	return v
}

// Stats returns how many quantiles were asked of q and how many of those the
// memo served.
func (q *Quantiles) Stats() (calls, hits int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.calls, q.hits
}

// Overlay returns the latest published overlay (nil on a nil estimator).
// The returned overlay is immutable; callers may hold it across rounds.
// Implements the planner's OverlayProvider.
func (e *Estimator) Overlay() *market.Overlay {
	if e == nil {
		return nil
	}
	return e.overlay.Load()
}

// Changepoints returns the lifetime number of detected regime shifts.
func (e *Estimator) Changepoints() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.changepoints
}

// MeanAbsDivergence returns the mean |published − declared| probability
// across transient markets at the latest interval — how far the estimator
// has moved away from the catalog's story.
func (e *Estimator) MeanAbsDivergence() float64 {
	if e == nil {
		return 0
	}
	ov := e.overlay.Load()
	e.mu.Lock()
	t := e.t
	e.mu.Unlock()
	sum, cnt := 0.0, 0
	for i, m := range e.cat.Markets {
		if !m.Transient {
			continue
		}
		sum += math.Abs(ov.FailProbAt(i, m.FailProbAt(t)) - m.FailProbAt(t))
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
