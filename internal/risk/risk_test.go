package risk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testCatalog builds a small declared catalog: n transient markets with a
// constant declared probability p0 and constant unit prices, all in group 0
// (plus variants below regroup them), and one on-demand market at the end.
func testCatalog(n int, p0 float64, groups []int) *market.Catalog {
	const intervals = 512
	cat := &market.Catalog{StepHrs: 1, Intervals: intervals}
	flat := func(v float64) *trace.Series {
		vals := make([]float64, intervals)
		for i := range vals {
			vals[i] = v
		}
		return &trace.Series{StepHrs: 1, Values: vals}
	}
	for i := 0; i < n; i++ {
		g := 0
		if i < len(groups) {
			g = groups[i]
		}
		cat.Markets = append(cat.Markets, &market.Market{
			Type:      market.InstanceType{Name: "t", Capacity: 50},
			Transient: true,
			Group:     g,
			Price:     flat(0.03),
			FailProb:  flat(p0),
		})
	}
	cat.Markets = append(cat.Markets, &market.Market{
		Type:     market.InstanceType{Name: "od", Capacity: 50},
		Price:    flat(0.1),
		FailProb: flat(0),
	})
	return cat
}

// TestPosteriorConvergesToTrueRate drives one market with a deterministic
// Bernoulli stream at the true rate and checks the posterior mean converges
// there despite a strongly wrong declared prior — the core estimator
// guarantee: observation beats the catalog.
func TestPosteriorConvergesToTrueRate(t *testing.T) {
	const (
		trueRate  = 0.2
		intervals = 400
	)
	cat := testCatalog(1, 0.001, nil) // catalog claims 0.1% — a lie
	e := New(Config{Metrics: metrics.NewRegistry(), HalfLifeHrs: 1e9, PoolWeight: 0.001}, cat)
	exposed := []bool{true, false}
	// Deterministic stream: one revocation every 1/trueRate intervals.
	period := int(math.Round(1 / trueRate))
	for i := 0; i < intervals; i++ {
		if i%period == period-1 {
			e.ObserveRevocation(0, false)
		}
		e.ObserveInterval(i, exposed, nil)
	}
	mean, ucb, ok := estimate(e, 0)
	if !ok {
		t.Fatal("no estimate for transient market")
	}
	if math.Abs(mean-trueRate) > 0.03 {
		t.Fatalf("posterior mean %.4f did not converge to %.2f", mean, trueRate)
	}
	if ucb < mean {
		t.Fatalf("upper credible bound %.4f below mean %.4f", ucb, mean)
	}
	// With ~400 observed intervals the 90% bound must be tight around the
	// rate, not inflated to the cold-market band.
	if ucb > trueRate+0.06 {
		t.Fatalf("ucb %.4f too loose after %d intervals", ucb, intervals)
	}
	ov := e.Overlay()
	if ov == nil || ov.Version == 0 {
		t.Fatal("overlay not published")
	}
	if got := ov.FailProbAt(0, -1); math.Abs(got-ucb) > 1e-12 {
		t.Fatalf("overlay %.4f != published ucb %.4f", got, ucb)
	}
	if events(e) != int64(intervals/period) {
		t.Fatalf("events = %d", events(e))
	}
}

// TestColdMarketFallsBackToPrior: a market with no exposure must publish a
// probability governed by the declared prior, and an unobserved clean
// catalog must not be inflated.
func TestColdMarketFallsBackToPrior(t *testing.T) {
	cat := testCatalog(2, 0.02, []int{0, 1})
	e := New(Config{Quantile: 0.9}, cat)
	mean, ucb, ok := estimate(e, 1)
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(mean-0.02) > 1e-9 {
		t.Fatalf("cold posterior mean %.4f != declared 0.02", mean)
	}
	// Beta(8·0.02, 8·0.98) at the 0.9 quantile ≈ 0.062: wider than the
	// prior mean (thin evidence) but nowhere near condemned.
	if ucb < 0.02 || ucb > 0.15 {
		t.Fatalf("cold ucb %.4f outside the graceful-fallback band", ucb)
	}
	// Exposure without events must TIGHTEN the bound toward the prior mean.
	for i := 0; i < 200; i++ {
		e.ObserveInterval(i, []bool{true, true}, nil)
	}
	_, ucb2, _ := estimate(e, 1)
	if ucb2 >= ucb {
		t.Fatalf("clean exposure did not tighten the bound: %.4f -> %.4f", ucb, ucb2)
	}
}

// TestGroupPoolingSharesEvidence: a surge on one member of a demand pool
// must raise its group-mate's estimate (correlated risk), but not the
// estimate of a market in another pool.
func TestGroupPoolingSharesEvidence(t *testing.T) {
	cat := testCatalog(3, 0.01, []int{0, 0, 1})
	e := New(Config{PoolWeight: 0.5}, cat)
	_, coldMate, _ := estimate(e, 1)
	_, coldOther, _ := estimate(e, 2)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			e.ObserveRevocation(0, false)
		}
		e.ObserveInterval(i, []bool{true, true, true}, nil)
	}
	_, mate, _ := estimate(e, 1)
	_, other, _ := estimate(e, 2)
	if mate <= coldMate {
		t.Fatalf("group-mate estimate did not rise: %.4f -> %.4f", coldMate, mate)
	}
	if other > coldOther {
		t.Fatalf("unrelated pool contaminated: %.4f -> %.4f", coldOther, other)
	}
}

// TestRevocationDedupWithinInterval: the catalog probability is per
// market-interval, so several warnings inside one interval are one
// Bernoulli success, while lifetime event counts keep every warning.
func TestRevocationDedupWithinInterval(t *testing.T) {
	cat := testCatalog(1, 0.02, nil)
	e := New(Config{Metrics: metrics.NewRegistry()}, cat)
	e.ObserveRevocation(0, false)
	e.ObserveRevocation(0, true)
	e.ObserveRevocation(0, false)
	e.ObserveInterval(0, nil, nil)
	if got := exposure(e, 0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("exposure after one interval = %.4f, want 1", got)
	}
	if events(e) != 3 {
		t.Fatalf("lifetime events = %d, want 3", events(e))
	}
}

// TestSeedLifetimeCountsBaseline covers the ring-eviction undercount fix:
// pre-attach events seeded from a subscription baseline must appear in
// lifetime totals without perturbing rate estimates.
func TestSeedLifetimeCountsBaseline(t *testing.T) {
	cat := testCatalog(1, 0.02, nil)
	e := New(Config{Metrics: metrics.NewRegistry()}, cat)
	_, before, _ := estimate(e, 0)
	e.SeedLifetime(2000)
	if events(e) != 2000 {
		t.Fatalf("lifetime events = %d, want 2000", events(e))
	}
	_, after, _ := estimate(e, 0)
	if after != before {
		t.Fatalf("unattributed baseline moved the estimate: %.4f -> %.4f", before, after)
	}
}

// TestNilEstimatorNoOps: every exported method must be a zero-cost no-op on
// a nil receiver (the disabled-path contract).
func TestNilEstimatorNoOps(t *testing.T) {
	var e *Estimator
	e.ObserveRevocation(0, true)
	e.ObserveInterval(0, nil, nil)
	e.SeedLifetime(10)
	if e.Overlay() != nil {
		t.Fatal("nil estimator published an overlay")
	}
	if e.Changepoints() != 0 || e.MeanAbsDivergence() != 0 {
		t.Fatal("nil estimator accessors must return zeros")
	}
}

// TestOverlayVersionAdvances: every ObserveInterval publishes a new overlay
// version; the epoch only moves on changepoints (covered in
// changepoint_test.go).
func TestOverlayVersionAdvances(t *testing.T) {
	cat := testCatalog(1, 0.02, nil)
	e := New(Config{}, cat)
	v0 := e.Overlay().Version
	e.ObserveInterval(0, nil, nil)
	e.ObserveInterval(1, nil, nil)
	ov := e.Overlay()
	if ov.Version != v0+2 {
		t.Fatalf("version %d after 2 intervals (started %d)", ov.Version, v0)
	}
	if ov.Epoch != 0 {
		t.Fatalf("epoch %d without a changepoint", ov.Epoch)
	}
	// On-demand marker: no override.
	if ov.FailProb[1] >= 0 {
		t.Fatalf("on-demand market published override %v", ov.FailProb[1])
	}
}

// mapOverlay is the oracle for the published overlay: the pooled totals kept
// in maps keyed by group label, each summed in ascending market order.
func mapOverlay(e *Estimator) []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	groupK, groupX := map[int]float64{}, map[int]float64{}
	for i, m := range e.cat.Markets {
		if m.Transient {
			groupK[m.Group] += e.k[i]
			groupX[m.Group] += e.x[i]
		}
	}
	fail := make([]float64, e.n)
	for i, m := range e.cat.Markets {
		fail[i] = -1
		if m.Transient {
			_, fail[i] = e.posteriorLocked(i, groupK[m.Group], groupX[m.Group])
		}
	}
	return fail
}

// TestBitIdenticalPooledOverlay: pool totals kept in slices indexed by a
// dense pool number publish the overlay the group-keyed maps did, bit for
// bit, for sparse and negative group labels too.
func TestBitIdenticalPooledOverlay(t *testing.T) {
	cat := testCatalog(6, 0.02, []int{3, -2, 3, 7, -2, 3})
	e := New(Config{PoolWeight: 0.4}, cat)
	exposed := make([]bool, cat.Len())
	for i := 0; i < 60; i++ {
		for m := range exposed {
			exposed[m] = (i+m)%3 != 0
		}
		if i%4 == 0 {
			e.ObserveRevocation(i%5, false)
		}
		e.ObserveInterval(i, exposed, nil)
		got, want := e.Overlay().FailProb, mapOverlay(e)
		for m := range want {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("interval %d market %d: overlay %x, map-pooled %x", i, m, math.Float64bits(got[m]), math.Float64bits(want[m]))
			}
		}
	}
}

// TestObserveIntervalAllocatesOnlyTheOverlay: closing an interval allocates
// the published overlay and its probability slice, nothing else — the pool
// totals live in slices sized once by New.
func TestObserveIntervalAllocatesOnlyTheOverlay(t *testing.T) {
	cat := testCatalog(4, 0.02, []int{0, 1, 0, 1})
	e := New(Config{}, cat)
	exposed := []bool{true, true, false, true, false}
	prices := []float64{0.03, 0.03, 0.03, 0.03, 0.1}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		e.ObserveRevocation(i%4, false)
		e.ObserveInterval(i, exposed, prices)
		i++
	})
	if allocs != 2 {
		t.Fatalf("ObserveInterval allocates %v times per call, want 2 (the overlay)", allocs)
	}
	if _, _, ok := estimate(e, 1); !ok || testing.AllocsPerRun(100, func() { estimate(e, 1) }) != 0 {
		t.Fatal("Estimate allocates")
	}
}

// TestQuantilesKeyEveryArgument: the memo hands out stats.BetaQuantile's
// bits, and only for a repeat of all three arguments — a key that dropped p,
// a or b would serve the first call's value to the next three.
func TestQuantilesKeyEveryArgument(t *testing.T) {
	var q Quantiles
	for _, c := range [][3]float64{{0.9, 2, 3}, {0.8, 2, 3}, {0.9, 2.5, 3}, {0.9, 2, 4}, {0.9, 2, 3}} {
		got, want := q.BetaQuantile(c[0], c[1], c[2], 0.5), stats.BetaQuantile(c[0], c[1], c[2], math.NaN())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("memo BetaQuantile%v = %v, want %v", c, got, want)
		}
	}
	if calls, hits := q.Stats(); calls != 5 || hits != 1 {
		t.Fatalf("calls, hits = %d, %d; want 5, 1", calls, hits)
	}
	var none *Quantiles
	if got, want := none.BetaQuantile(0.9, 2, 3, 0.5), stats.BetaQuantile(0.9, 2, 3, math.NaN()); got != want {
		t.Fatalf("nil memo = %v, want %v", got, want)
	}
}

// estimate returns market i's current posterior mean and upper credible
// bound, recomputed from the pooled counters (false for on-demand or
// out-of-range markets).
func estimate(e *Estimator, i int) (mean, ucb float64, ok bool) {
	if i < 0 || i >= e.n || !e.cat.Markets[i].Transient {
		return 0, 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	gk, gx := pooledLocked(e, i)
	mean, ucb = e.posteriorLocked(i, gk, gx)
	return mean, ucb, true
}

// pooledLocked returns the revocation and exposure totals of market i's
// demand pool, summed in ascending market order; e.mu must be held.
func pooledLocked(e *Estimator, i int) (gk, gx float64) {
	for j, m := range e.cat.Markets {
		if m.Transient && e.pool[j] == e.pool[i] {
			gk += e.k[j]
			gx += e.x[j]
		}
	}
	return gk, gx
}

// events reads spotweb_risk_events_total, the lifetime revocation events
// the estimator consumed (its config must carry a registry).
func events(e *Estimator) int64 {
	return e.cfg.Metrics.Counter("spotweb_risk_events_total", "").Value()
}

// exposure returns market i's decayed exposure count.
func exposure(e *Estimator, i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.x[i]
}

// TestBitIdenticalReusedQuantiles: an estimator that reuses each market's
// quantile when its posterior shape repeats, and bisects from near the last
// one otherwise, publishes the overlay that bisecting every quantile from
// [0, 1] would, bit for bit — over a 288-market catalog for 1,000 intervals
// at two seeds, run as parallel subtests, with the price stream feeding the
// changepoint detector. Each interval a random third of the markets holds
// servers, but only in pools whose number is not 2 mod 3, and revocations are
// drawn at the declared probabilities only in even pools: so some pools see
// no evidence (their shapes repeat), some only exposure (a repeats while b
// moves) and some both. The shared memo's counts show that both the reuse and
// the warm start were taken.
func TestBitIdenticalReusedQuantiles(t *testing.T) {
	const intervals = 1000
	for _, seed := range []int64{7, 43} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cat := market.CatalogConfig{Seed: seed, NumTypes: 144, IncludeOnDemand: true}.Generate()
			var q Quantiles
			e := New(Config{}, cat)
			e.ShareQuantiles(&q)
			rng := rand.New(rand.NewSource(seed))
			exposed := make([]bool, cat.Len())
			prices := make([]float64, cat.Len())
			transient := 0
			for _, m := range cat.Markets {
				if m.Transient {
					transient++
				}
			}
			for t0 := 0; t0 < intervals; t0++ {
				for i, m := range cat.Markets {
					prices[i] = m.PriceAt(t0)
					exposed[i] = rng.Intn(3) == 0 && e.pool[i]%3 != 2
					if exposed[i] && m.Transient && e.pool[i]%2 == 0 && rng.Float64() < m.FailProbAt(t0) {
						e.ObserveRevocation(i, false)
					}
				}
				e.ObserveInterval(t0, exposed, prices)
				got := e.Overlay().FailProb
				for i, m := range cat.Markets {
					if !m.Transient {
						continue
					}
					e.mu.Lock()
					gk, gx := pooledLocked(e, i)
					a, b := e.shapeLocked(i, gk, gx)
					e.mu.Unlock()
					want := math.Min(stats.BetaQuantile(e.cfg.Quantile, a, b, math.NaN()), e.cfg.MaxFailProb)
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("seed %d interval %d market %d: Beta(%v, %v) bound %v, from [0, 1] %v", seed, t0, i, a, b, got[i], want)
					}
				}
			}
			calls, hits := q.Stats()
			if all := int64(transient * (intervals + 1)); calls >= all || calls-hits == 0 {
				t.Fatalf("seed %d: %d quantiles asked of the memo (%d served) for %d bounds: no reuse or no warm start", seed, calls, hits, all)
			}
			t.Logf("seed %d: %d of %d bounds reused a quantile, %d bisected from near the last", seed, int64(transient*(intervals+1))-calls, transient*(intervals+1), calls-hits)
		})
	}
}

// TestNonFiniteShapeIsNotNoRisk: a NaN declared probability makes every
// posterior shape NaN. The bound it publishes is NaN, not the 2⁻⁵¹ ≈ 4.4e-16
// — "no risk" — the bisection used to reach when every CDF comparison failed.
func TestNonFiniteShapeIsNotNoRisk(t *testing.T) {
	e := New(Config{}, testCatalog(2, math.NaN(), nil))
	e.ObserveInterval(0, []bool{true, true, false}, nil)
	for i, v := range e.Overlay().FailProb[:2] {
		if !math.IsNaN(v) {
			t.Fatalf("market %d: NaN evidence published %v", i, v)
		}
	}
}

// TestNonFiniteConfigTakesDefaults: a NaN or ±Inf in any Config field, the
// changepoint detector's included, takes that field's default, as an unset
// one does. Over a trace with revocations, a pooled pair of markets and a
// price shift that trips the detector, such an estimator publishes the
// default estimator's overlay, every bit of every round.
func TestNonFiniteConfigTakesDefaults(t *testing.T) {
	fields := map[string]func(c *Config, v float64){
		"Quantile":      func(c *Config, v float64) { c.Quantile = v },
		"HalfLifeHrs":   func(c *Config, v float64) { c.HalfLifeHrs = v },
		"PriorStrength": func(c *Config, v float64) { c.PriorStrength = v },
		"PoolWeight":    func(c *Config, v float64) { c.PoolWeight = v },
		"MaxFailProb":   func(c *Config, v float64) { c.MaxFailProb = v },
		"Threshold":     func(c *Config, v float64) { c.Changepoint.Threshold = v },
		"Drift":         func(c *Config, v float64) { c.Changepoint.Drift = v },
		"Forget":        func(c *Config, v float64) { c.Changepoint.Forget = v },
		"MinStd":        func(c *Config, v float64) { c.Changepoint.MinStd = v },
	}
	trace := func(cfg Config) (overlays []*market.Overlay, changepoints int64) {
		e := New(cfg, testCatalog(3, 0.02, []int{1, 1, 2}))
		exposed := []bool{true, true, true, false}
		prices := []float64{0.05, 0.05, 0.05, 0.1}
		for i := 0; i < 120; i++ {
			if i%4 == 0 {
				e.ObserveRevocation(0, false)
			}
			if i%9 == 0 {
				e.ObserveRevocation(2, false)
			}
			prices[0] = 0.05 * (1 + 0.02*noisy(i))
			if i >= 80 {
				prices[0] = 0.2
			}
			e.ObserveInterval(i, exposed, prices)
			overlays = append(overlays, e.Overlay())
		}
		return overlays, e.Changepoints()
	}
	want, wantCP := trace(Config{})
	if wantCP == 0 {
		t.Fatal("the trace trips no changepoint: the detector's fields go unchecked")
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var cfg Config
			set(&cfg, v)
			got, cp := trace(cfg)
			if cp != wantCP {
				t.Fatalf("%s = %v: %d changepoints, want %d", name, v, cp, wantCP)
			}
			for r := range want {
				if got[r].Epoch != want[r].Epoch {
					t.Fatalf("%s = %v: round %d epoch %d, want %d", name, v, r, got[r].Epoch, want[r].Epoch)
				}
				for i, p := range want[r].FailProb {
					if math.Float64bits(got[r].FailProb[i]) != math.Float64bits(p) {
						t.Fatalf("%s = %v: round %d market %d published %v, want %v", name, v, r, i, got[r].FailProb[i], p)
					}
				}
			}
		}
	}
}
