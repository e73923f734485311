package risk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/market"
)

// lawRun feeds a fresh estimator over testCatalog(4, p0, {0, 0, 1, 1}) for
// len(exposed) intervals: market m holds servers in interval t when
// exposed[t][m], and is revoked when revoked[t][m]. It returns the published
// bounds after every interval.
func lawRun(cfg Config, p0 float64, exposed, revoked [][4]bool) [][]float64 {
	e := New(cfg, testCatalog(4, p0, []int{0, 0, 1, 1}))
	out := make([][]float64, len(exposed))
	for iv, ex := range exposed {
		for m, r := range revoked[iv] {
			if r {
				e.ObserveRevocation(m, false)
			}
		}
		e.ObserveInterval(iv, append(ex[:], false), nil)
		out[iv] = e.Overlay().FailProb[:4]
	}
	return out
}

// lawCase draws a seeded estimator configuration, declared probability and
// evidence stream: up to 60 intervals, each market holding servers at a rate
// and revoked at a rate of its own.
func lawCase(rng *rand.Rand) (Config, float64, [][4]bool, [][4]bool) {
	cfg := Config{
		Quantile:    0.5 + 0.49*rng.Float64(),
		HalfLifeHrs: 2 + 46*rng.Float64(),
		PoolWeight:  []float64{-1, 0.3, 0.5, 1}[rng.Intn(4)],
	}
	p0 := 1e-5 * math.Pow(0.5/1e-5, rng.Float64())
	n := 1 + rng.Intn(60)
	exposed, revoked := make([][4]bool, n), make([][4]bool, n)
	var pe, pr [4]float64
	for m := range pe {
		pe[m], pr[m] = rng.Float64(), 0.5*rng.Float64()
	}
	for t := range exposed {
		for m := range pe {
			exposed[t][m] = rng.Float64() < pe[m]
			revoked[t][m] = exposed[t][m] && rng.Float64() < pr[m]
		}
	}
	return cfg, p0, exposed, revoked
}

// TestLawBoundRisesWithRevocations: at fixed exposure, one more revocation
// never lowers a published bound — neither the revoked market's nor, through
// pooling, any other market's. Fails on the mutation that swaps the
// posterior's counts, a = s·p0 + (xeff − keff) and b = s·(1−p0) + keff.
func TestLawBoundRisesWithRevocations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for c := 0; c < 300; c++ {
		cfg, p0, exposed, revoked := lawCase(rng)
		base := lawRun(cfg, p0, exposed, revoked)
		// One more revocation on an exposed, unrevoked market-interval.
		t0, m := rng.Intn(len(exposed)), rng.Intn(4)
		if !exposed[t0][m] || revoked[t0][m] {
			continue
		}
		more := append([][4]bool(nil), revoked...)
		more[t0][m] = true
		for iv, row := range lawRun(cfg, p0, exposed, more) {
			for i, v := range row {
				if v < base[iv][i] {
					t.Fatalf("case %d: a revocation of market %d at interval %d lowered market %d's bound at interval %d: %v → %v (%+v, p0 %v)",
						c, m, t0, i, iv, base[iv][i], v, cfg, p0)
				}
			}
		}
	}
}

// TestLawBoundFallsWithExposure: at fixed revocations, one more exposed
// interval never raises a published bound. Fails on the mutation that
// subtracts the pool's exposure, xeff = x − w·(gx − x): a pool-mate's
// exposure then lowers a market's effective exposure.
func TestLawBoundFallsWithExposure(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for c := 0; c < 300; c++ {
		cfg, p0, exposed, revoked := lawCase(rng)
		base := lawRun(cfg, p0, exposed, revoked)
		t0, m := rng.Intn(len(exposed)), rng.Intn(4)
		if exposed[t0][m] {
			continue
		}
		more := append([][4]bool(nil), exposed...)
		more[t0][m] = true
		for iv, row := range lawRun(cfg, p0, more, revoked) {
			for i, v := range row {
				if v > base[iv][i] {
					t.Fatalf("case %d: exposing market %d at interval %d raised market %d's bound at interval %d: %v → %v (%+v, p0 %v)",
						c, m, t0, i, iv, base[iv][i], v, cfg, p0)
				}
			}
		}
	}
}

// TestLawEvidenceHalvesPerHalfLife: after one half-life with no exposure and
// no revocation, every decayed count is half what it was, to within the
// rounding of one multiplication per interval. Fails on the mutation that
// decays by e^(−step/half-life), which keeps 1/e per half-life.
func TestLawEvidenceHalvesPerHalfLife(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for c := 0; c < 200; c++ {
		step := []float64{0.25, 0.5, 1, 2}[rng.Intn(4)]
		steps := 1 + rng.Intn(96)
		cat := testCatalog(4, 0.02, []int{0, 0, 1, 1})
		cat.StepHrs = step
		e := New(Config{HalfLifeHrs: step * float64(steps)}, cat)
		for iv := 0; iv < 1+rng.Intn(40); iv++ {
			for m := 0; m < 4; m++ {
				if rng.Intn(3) == 0 {
					e.ObserveRevocation(m, false)
				}
			}
			e.ObserveInterval(iv, []bool{true, rng.Intn(2) == 0, true, rng.Intn(2) == 0, false}, nil)
		}
		k, x := append([]float64(nil), e.k...), append([]float64(nil), e.x...)
		for iv := 0; iv < steps; iv++ {
			e.ObserveInterval(100+iv, nil, nil)
		}
		for m := range k {
			for _, pair := range [][2]float64{{k[m], e.k[m]}, {x[m], e.x[m]}} {
				if want, got := 0.5*pair[0], pair[1]; math.Abs(got-want) > 1e-12*want {
					t.Fatalf("case %d: market %d's count %v became %v after a half-life of %d × %v h, want %v", c, m, pair[0], got, steps, step, want)
				}
			}
		}
	}
}

// changepointPair feeds two estimators over cat the same evidence for 300
// intervals — every market exposed in each, market i revoked in every
// every[i]-th (never when 0) — and the same flat, slightly noisy prices. Then,
// with no further evidence, the stepped estimator sees market m's price
// triple until its detector trips there. It returns both estimators at the
// interval of the trip, and false unless that trip was the only changepoint.
func changepointPair(cfg Config, cat *market.Catalog, every [4]int, m int) (flat, stepped *Estimator, ok bool) {
	flat, stepped = New(cfg, cat), New(cfg, cat)
	prices := func(iv int) []float64 {
		p := make([]float64, 5)
		for i := range p {
			p[i] = 0.05 * (1 + 0.02*noisy(5*iv+i))
		}
		return p
	}
	const intervals = 300
	exposed := []bool{true, true, true, true, false}
	for iv := 0; iv < intervals; iv++ {
		for _, e := range []*Estimator{flat, stepped} {
			for i, n := range every {
				if n > 0 && iv%n == n-1 {
					e.ObserveRevocation(i, false)
				}
			}
			e.ObserveInterval(iv, exposed, prices(iv))
		}
	}
	for iv := intervals; iv < intervals+8; iv++ {
		p := prices(iv)
		flat.ObserveInterval(iv, nil, p)
		p[m] *= 3
		stepped.ObserveInterval(iv, nil, p)
		if stepped.Changepoints() > 0 {
			return flat, stepped, stepped.Changepoints() == 1 && flat.Changepoints() == 0
		}
	}
	return flat, stepped, false
}

// TestLawChangepointMovesBoundTowardPrior: a changepoint detected in market m
// forgets most of m's evidence. Against an estimator that saw the same
// revocations and exposure and no price step, the overlay's Epoch is one
// higher, m's posterior mean is strictly closer to the declared p0, and where
// exposure outweighs the revocations — a bound below the no-evidence bound —
// m's bound is strictly closer to the no-evidence bound. Each market is its
// own demand pool; their revocation rates, 1/60, none, 1/3 and 1/10, sit on
// either side of every p0. Fails on the mutation that deletes both Forget
// lines (every value is equal) and on the one that forgets k alone, caught on
// the exposure-heavy markets, whose mean and bound then stay put or fall
// further below the prior's.
//
// Above the no-evidence bound the law holds for the mean only: forgetting
// widens the posterior, so the upper bound of a market riskier than declared
// can rise — 0.112 → 0.120 at p0 0.04, q 0.8 and rate 1/10, against a
// no-evidence bound of 0.066.
func TestLawChangepointMovesBoundTowardPrior(t *testing.T) {
	every := [4]int{60, 0, 3, 10}
	for _, p0 := range []float64{0.04, 0.06} {
		cat := testCatalog(4, p0, []int{0, 1, 2, 3})
		for _, q := range []float64{0.8, 0.9, 0.95} {
			cfg := Config{Quantile: q, HalfLifeHrs: 1e9}
			prior := New(cfg, cat).Overlay().FailProb
			for m := range every {
				flat, stepped, ok := changepointPair(cfg, cat, every, m)
				if !ok {
					t.Fatalf("p0 %v q %v: the price step made no changepoint in market %d alone", p0, q, m)
				}
				if a, b := flat.Overlay().Epoch, stepped.Overlay().Epoch; b != a+1 {
					t.Fatalf("p0 %v q %v market %d: epoch %d after the changepoint, want %d", p0, q, m, b, a+1)
				}
				meanA, boundA, _ := estimate(flat, m)
				meanB, boundB, _ := estimate(stepped, m)
				if !(math.Abs(meanB-p0) < math.Abs(meanA-p0)) {
					t.Fatalf("p0 %v q %v: market %d's posterior mean %v after a changepoint is no closer to p0 than %v without one",
						p0, q, m, meanB, meanA)
				}
				if boundA < prior[m] && !(math.Abs(boundB-prior[m]) < math.Abs(boundA-prior[m])) {
					t.Fatalf("p0 %v q %v: market %d's bound %v after a changepoint is no closer to the no-evidence bound %v than %v without one",
						p0, q, m, boundB, prior[m], boundA)
				}
			}
		}
	}
}
