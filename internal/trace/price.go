package trace

import (
	"math"
	"math/rand"
	"sync"
)

// marketRands holds the generators the per-market processes below draw
// from. A catalog build runs two per market — 4,000 for a 2,000-market
// federation — and re-seeding a pooled generator puts it in
// rand.NewSource(seed)'s state without allocating a fresh 4.9-KB source each
// time.
var marketRands sync.Pool

// seededRand returns a generator seeded with seed, a pooled one when there is
// one; put it back in marketRands when done.
func seededRand(seed int64) *rand.Rand {
	if r, ok := marketRands.Get().(*rand.Rand); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// PriceConfig parameterizes a synthetic spot-price process for one market.
// The process is a mean-reverting (Ornstein–Uhlenbeck style) log-price with
// occasional demand-driven regime jumps, which reproduces the qualitative
// behaviour the paper exploits: the identity of the cheapest market changes
// over time (Fig. 5(a)).
type PriceConfig struct {
	Seed int64
	// OnDemandPrice is the fixed on-demand price ($/hr); the spot price mean
	// sits at MeanDiscount × OnDemandPrice.
	OnDemandPrice float64
	// MeanDiscount in (0,1); e.g. 0.25 means spot averages 75% off.
	MeanDiscount float64
	// Volatility of the log price per sqrt(hour).
	Volatility float64
	// Reversion speed per hour toward the mean.
	Reversion float64
	// JumpsPerWeek and JumpMagnitude control demand-surge price jumps.
	JumpsPerWeek  float64
	JumpMagnitude float64
	// Hours and samples per hour.
	Hours          int
	SamplesPerHour int
}

// Generate produces the spot price series ($/hr). Prices are clamped to
// [0.1×, 1.0×] the on-demand price, mirroring EC2's spot price cap.
func (c PriceConfig) Generate() *Series {
	rng := seededRand(c.Seed)
	defer marketRands.Put(rng)
	n := c.Hours * c.SamplesPerHour
	if n <= 0 {
		panic("trace: PriceConfig produces empty series")
	}
	step := 1.0 / float64(c.SamplesPerHour)
	mean := c.OnDemandPrice * c.MeanDiscount
	logMean := math.Log(mean)
	vals := make([]float64, n)
	x := logMean
	jumpUntil := -1.0
	jumpBoost := 0.0
	for i := 0; i < n; i++ {
		hr := float64(i) * step
		// Jump arrivals.
		if hr > jumpUntil && rng.Float64() < c.JumpsPerWeek/(24*7)*step {
			jumpUntil = hr + 1 + rng.Float64()*6 // surge lasts 1–7 h
			jumpBoost = c.JumpMagnitude * (0.5 + rng.Float64())
		}
		boost := 0.0
		if hr <= jumpUntil {
			boost = jumpBoost
		}
		// OU step on log price.
		x += c.Reversion*(logMean-x)*step + c.Volatility*math.Sqrt(step)*rng.NormFloat64()
		p := math.Exp(x) * (1 + boost)
		if p > c.OnDemandPrice {
			p = c.OnDemandPrice
		}
		if p < 0.1*mean {
			p = 0.1 * mean
		}
		vals[i] = p
	}
	return &Series{Name: "spot-price", StepHrs: step, Values: vals, UnitName: "$/hr"}
}

// ConstantSeries returns a series holding the same value everywhere — used
// for on-demand prices and providers with fixed transient discounts.
func ConstantSeries(name string, stepHrs float64, n int, value float64) *Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = value
	}
	return &Series{Name: name, StepHrs: stepHrs, Values: vals}
}

// FailureConfig parameterizes a revocation-probability process. The paper
// observes that "for almost all markets, there is no, to very little
// dynamics, in the revocation probability", so the default process is a
// slowly drifting step function over the Spot-Advisor-style bands
// (<5%, 5-10%, 10-15%, 15-20%, >20%).
type FailureConfig struct {
	Seed int64
	// BaseProb is the resting revocation probability per interval.
	BaseProb float64
	// DriftsPerWeek is how often the market shifts to a neighboring band.
	DriftsPerWeek float64
	// SurgeProb adds correlated surge periods (demand pressure) during which
	// the probability is elevated; SurgesPerWeek controls frequency.
	SurgeProb     float64
	SurgesPerWeek float64
	// Hours and samples per hour.
	Hours          int
	SamplesPerHour int
}

// Generate produces the revocation-probability series (per time step,
// in [0, 0.5]).
func (c FailureConfig) Generate() *Series {
	rng := seededRand(c.Seed)
	defer marketRands.Put(rng)
	n := c.Hours * c.SamplesPerHour
	if n <= 0 {
		panic("trace: FailureConfig produces empty series")
	}
	step := 1.0 / float64(c.SamplesPerHour)
	vals := make([]float64, n)
	p := c.BaseProb
	surgeUntil := -1.0
	for i := 0; i < n; i++ {
		hr := float64(i) * step
		if rng.Float64() < c.DriftsPerWeek/(24*7)*step {
			// Shift to a neighboring band.
			p += (rng.Float64() - 0.5) * 0.04
			if p < 0.005 {
				p = 0.005
			}
			if p > 0.25 {
				p = 0.25
			}
		}
		if hr > surgeUntil && rng.Float64() < c.SurgesPerWeek/(24*7)*step {
			surgeUntil = hr + 2 + rng.Float64()*10
		}
		v := p
		if hr <= surgeUntil {
			v += c.SurgeProb
		}
		if v > 0.5 {
			v = 0.5
		}
		vals[i] = v
	}
	return &Series{Name: "failure-prob", StepHrs: step, Values: vals, UnitName: "prob"}
}
