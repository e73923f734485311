package risk

import (
	"math"
	"testing"

	"repro/internal/market"
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
	e := New(Config{HalfLifeHrs: 1e9, PoolWeight: 0.001}, cat)
	exposed := []bool{true, false}
	// Deterministic stream: one revocation every 1/trueRate intervals.
	period := int(math.Round(1 / trueRate))
	for i := 0; i < intervals; i++ {
		if i%period == period-1 {
			e.ObserveRevocation(0, false)
		}
		e.ObserveInterval(i, exposed, nil)
	}
	mean, ucb, ok := e.Estimate(0)
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
	if e.Events() != int64(intervals/period) {
		t.Fatalf("events = %d", e.Events())
	}
}

// TestColdMarketFallsBackToPrior: a market with no exposure must publish a
// probability governed by the declared prior, and an unobserved clean
// catalog must not be inflated.
func TestColdMarketFallsBackToPrior(t *testing.T) {
	cat := testCatalog(2, 0.02, []int{0, 1})
	e := New(Config{Quantile: 0.9}, cat)
	mean, ucb, ok := e.Estimate(1)
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
	_, ucb2, _ := e.Estimate(1)
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
	_, coldMate, _ := e.Estimate(1)
	_, coldOther, _ := e.Estimate(2)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			e.ObserveRevocation(0, false)
		}
		e.ObserveInterval(i, []bool{true, true, true}, nil)
	}
	_, mate, _ := e.Estimate(1)
	_, other, _ := e.Estimate(2)
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
	e := New(Config{}, cat)
	e.ObserveRevocation(0, false)
	e.ObserveRevocation(0, true)
	e.ObserveRevocation(0, false)
	e.ObserveInterval(0, nil, nil)
	if got := e.EffectiveSamples(0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("exposure after one interval = %.4f, want 1", got)
	}
	if e.Events() != 3 {
		t.Fatalf("lifetime events = %d, want 3", e.Events())
	}
}

// TestSeedLifetimeCountsBaseline covers the ring-eviction undercount fix:
// pre-attach events seeded from a subscription baseline must appear in
// lifetime totals without perturbing rate estimates.
func TestSeedLifetimeCountsBaseline(t *testing.T) {
	cat := testCatalog(1, 0.02, nil)
	e := New(Config{}, cat)
	_, before, _ := e.Estimate(0)
	e.SeedLifetime(2000)
	if e.Events() != 2000 {
		t.Fatalf("lifetime events = %d, want 2000", e.Events())
	}
	_, after, _ := e.Estimate(0)
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
	if _, _, ok := e.Estimate(0); ok {
		t.Fatal("nil estimator returned an estimate")
	}
	if e.Events() != 0 || e.Changepoints() != 0 || e.EffectiveSamples(0) != 0 || e.MeanAbsDivergence() != 0 {
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
	if _, _, ok := e.Estimate(1); !ok || testing.AllocsPerRun(100, func() { e.Estimate(1) }) != 0 {
		t.Fatal("Estimate allocates")
	}
}

// TestQuantilesKeyEveryArgument: the memo hands out stats.BetaQuantile's
// bits, and only for a repeat of all three arguments — a key that dropped p,
// a or b would serve the first call's value to the next three.
func TestQuantilesKeyEveryArgument(t *testing.T) {
	var q Quantiles
	for _, c := range [][3]float64{{0.9, 2, 3}, {0.8, 2, 3}, {0.9, 2.5, 3}, {0.9, 2, 4}, {0.9, 2, 3}} {
		got, want := q.BetaQuantile(c[0], c[1], c[2]), stats.BetaQuantile(c[0], c[1], c[2])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("memo BetaQuantile%v = %v, want %v", c, got, want)
		}
	}
	if calls, hits := q.Stats(); calls != 5 || hits != 1 {
		t.Fatalf("calls, hits = %d, %d; want 5, 1", calls, hits)
	}
	var none *Quantiles
	if got, want := none.BetaQuantile(0.9, 2, 3), stats.BetaQuantile(0.9, 2, 3); got != want {
		t.Fatalf("nil memo = %v, want %v", got, want)
	}
}
