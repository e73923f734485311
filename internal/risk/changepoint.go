package risk

import "math"

// ChangepointConfig tunes the per-market two-sided CUSUM detector run over
// the observed price stream. Innovations are standardized by an
// exponentially weighted mean/variance of the same stream, so thresholds
// are in σ units and transfer across price levels.
type ChangepointConfig struct {
	// Threshold is the CUSUM trip level in σ units (default 12). With the
	// per-step z-score clamped to ±8 and Drift 1.5, a hard level shift
	// trips in ⌈Threshold/6.5⌉ ≈ 2 intervals while sub-1.5σ drift never
	// accumulates.
	Threshold float64
	// Drift is the slack subtracted per step (default 1.5σ). Mean-reverting
	// price series produce autocorrelated innovations against the lagging
	// EW mean — persistent ~1σ excursions are their normal texture, not a
	// regime shift — so the slack sits above that band.
	Drift float64
	// Forget is the fraction of effective estimator history retained after
	// a trip (default 0.25).
	Forget float64
}

// withDefaults replaces each unset, out-of-range or non-finite field by its
// default, as Config.withDefaults does.
func (c ChangepointConfig) withDefaults() ChangepointConfig {
	if !positiveFinite(c.Threshold) {
		c.Threshold = 12
	}
	if !positiveFinite(c.Drift) {
		c.Drift = 1.5
	}
	if !(c.Forget > 0 && c.Forget < 1) {
		c.Forget = 0.25
	}
	return c
}

const (
	cusumEWAlpha = 0.08 // smoothing for the running mean/variance
	cusumWarmup  = 8    // observations before the detector may trip
	cusumZClamp  = 8.0  // per-step z-score cap
	// cusumMinStd floors the standardization σ at this fraction of the
	// running mean price, so a near-constant stream cannot make the detector
	// hair-triggered on noise at the last decimal.
	cusumMinStd = 0.02
	// cusumMomentGate stops outlier samples (|z| above the gate) from
	// updating the running moments once warm: a genuine level shift would
	// otherwise balloon the EW variance within two or three samples and
	// re-standardize itself back into the noise band before the cumulative
	// sum reaches threshold. Gated samples still feed the CUSUM.
	cusumMomentGate = 3.0
)

// cusum is one market's detector state: exponentially weighted moments of
// the price stream plus the two one-sided cumulative sums.
type cusum struct {
	init       bool
	warm       int
	mean, vari float64
	sPos, sNeg float64
}

// observe folds in one price sample and reports whether a regime shift
// tripped. On a trip the detector re-anchors to the current price.
func (c *cusum) observe(p float64, cfg ChangepointConfig) bool {
	if !c.init {
		c.init = true
		c.mean = p
		return false
	}
	std := math.Sqrt(c.vari)
	if floor := cusumMinStd * math.Max(math.Abs(c.mean), 1e-9); std < floor {
		std = floor
	}
	z := (p - c.mean) / std
	if z > cusumZClamp {
		z = cusumZClamp
	} else if z < -cusumZClamp {
		z = -cusumZClamp
	}
	c.sPos = math.Max(0, c.sPos+z-cfg.Drift)
	c.sNeg = math.Max(0, c.sNeg-z-cfg.Drift)
	if c.warm < cusumWarmup || math.Abs(z) <= cusumMomentGate {
		delta := p - c.mean
		c.mean += cusumEWAlpha * delta
		c.vari = (1 - cusumEWAlpha) * (c.vari + cusumEWAlpha*delta*delta)
	}
	c.warm++
	if c.warm >= cusumWarmup && (c.sPos > cfg.Threshold || c.sNeg > cfg.Threshold) {
		*c = cusum{init: true, mean: p}
		return true
	}
	return false
}
