package autoscale

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

func wikiTrace() *trace.Series {
	cfg := trace.WikipediaLike(21)
	cfg.Days = 7
	return cfg.Generate()
}

func testCatalog(hours int) *market.Catalog {
	return market.CatalogConfig{Seed: 9, NumTypes: 6, IncludeOnDemand: true, Hours: hours}.Generate()
}

func TestSpotWebPolicyName(t *testing.T) {
	cat := testCatalog(48)
	p := NewSpotWeb(portfolio.Config{Horizon: 4}, cat,
		predict.NewSplinePredictor(predict.SplineConfig{CIProb: 0.99}, 4),
		portfolio.ReactiveSource{Cat: cat})
	if p.Name() != "spotweb-h4" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestSpotWebPolicyDecide(t *testing.T) {
	cat := testCatalog(72)
	p := NewSpotWeb(portfolio.Config{Horizon: 2}, cat,
		&predict.Reactive{}, portfolio.ReactiveSource{Cat: cat})
	counts, err := p.Decide(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != cat.Len() {
		t.Fatalf("counts len = %d", len(counts))
	}
	var capSum float64
	for i, c := range counts {
		capSum += float64(c) * cat.Markets[i].Type.Capacity
	}
	if capSum < 500 {
		t.Fatalf("provisioned capacity %v below demand 500", capSum)
	}
}

func TestExoSphereLoop(t *testing.T) {
	cat := testCatalog(72)
	p := NewExoSphereLoop(cat, 5)
	if p.Name() != "exosphere-loop" {
		t.Fatalf("Name = %q", p.Name())
	}
	counts, err := p.Decide(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	var capSum float64
	for i, c := range counts {
		capSum += float64(c) * cat.Markets[i].Type.Capacity
	}
	if capSum < 400 {
		t.Fatalf("capacity %v below demand", capSum)
	}
}

func TestConstantPortfolio(t *testing.T) {
	cat := testCatalog(48)
	w := linalg.NewVector(cat.Len())
	w[0], w[2] = 2, 2 // unnormalized on purpose
	p, err := NewConstantPortfolio(cat, w, 1.2, &predict.Reactive{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := p.Decide(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if i != 0 && i != 2 && c != 0 {
			t.Fatalf("weightless market %d got %d servers", i, c)
		}
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Fatalf("weighted markets empty: %v", counts)
	}
	// Mix stays frozen as demand moves.
	counts2, _ := p.Decide(1, 2000)
	if counts2[1] != 0 || counts2[0] < counts[0] {
		t.Fatalf("portfolio drifted: %v -> %v", counts, counts2)
	}
}

func TestConstantPortfolioErrors(t *testing.T) {
	cat := testCatalog(24)
	if _, err := NewConstantPortfolio(cat, linalg.NewVector(2), 1, &predict.Reactive{}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := NewConstantPortfolio(cat, linalg.NewVector(cat.Len()), 1, &predict.Reactive{}); err == nil {
		t.Fatal("expected zero-weight error")
	}
	bad := linalg.NewVector(cat.Len())
	bad[0] = -1
	if _, err := NewConstantPortfolio(cat, bad, 1, &predict.Reactive{}); err == nil {
		t.Fatal("expected negative-weight error")
	}
}

func TestFreezeWeights(t *testing.T) {
	cat := testCatalog(72)
	w, err := FreezeWeights(cat, 2, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != cat.Len() {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for _, x := range w {
		if x < -1e-9 {
			t.Fatalf("negative weight %v", x)
		}
		sum += x
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("weights sum %v, want 1", sum)
	}
}

func TestOnDemandPolicy(t *testing.T) {
	cat := testCatalog(24)
	p, err := NewOnDemand(cat, 1.1, &predict.Reactive{})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := p.Decide(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := -1
	for i, c := range counts {
		if c > 0 {
			if nonzero != -1 {
				t.Fatal("on-demand policy used multiple markets")
			}
			nonzero = i
		}
	}
	if nonzero == -1 || cat.Markets[nonzero].Transient {
		t.Fatalf("on-demand policy picked market %d", nonzero)
	}
	// Catalog with no on-demand markets.
	spotOnly := market.TestbedCatalog(1, 4)
	if _, err := NewOnDemand(spotOnly, 1, &predict.Reactive{}); err == nil {
		t.Fatal("expected error for spot-only catalog")
	}
}

// Integration: SpotWeb must be substantially cheaper than on-demand on the
// same workload (the paper's headline "up to 90% vs conventional servers").
func TestSpotWebCheaperThanOnDemand(t *testing.T) {
	wl := wikiTrace()
	cat := testCatalog(wl.Len())

	run := func(pol sim.Policy) *sim.Result {
		s := &sim.Simulator{
			Cfg:      sim.Config{Seed: 2, TransiencyAware: true},
			Cat:      cat,
			Workload: wl,
			Policy:   pol,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sw := run(NewSpotWeb(portfolio.Config{Horizon: 4}, cat,
		predict.NewSplinePredictor(predict.SplineConfig{ARLag1: true, CIProb: 0.99}, 4),
		portfolio.ReactiveSource{Cat: cat}))
	odPol, err := NewOnDemand(cat, 1.15, &predict.Reactive{})
	if err != nil {
		t.Fatal(err)
	}
	od := run(odPol)

	if sw.TotalCost >= 0.6*od.TotalCost {
		t.Fatalf("SpotWeb cost %v should be well below on-demand %v", sw.TotalCost, od.TotalCost)
	}
	if sw.ViolationPct > 5 {
		t.Fatalf("SpotWeb violations %v%% exceed the 5%% SLO budget", sw.ViolationPct)
	}
}

// Regression: FreezeWeights hard-coded a 336-interval covariance window, which
// is 14 days only at hourly sampling. On a 15-minute catalog it must look
// back 1,344 intervals, like the planners do.
func TestFreezeWeightsWindowCountsIntervals(t *testing.T) {
	cat := market.CatalogConfig{Seed: 9, NumTypes: 6, IncludeOnDemand: true, Hours: 24 * 20, SamplesPerHour: 4}.Generate()
	if cat.StepHrs != 0.25 {
		t.Fatalf("StepHrs = %v", cat.StepHrs)
	}
	const tick, lambda, alpha = 4 * 24 * 18, 800.0, 50.0
	frozen := func(window int) linalg.Vector {
		plan, err := portfolio.Optimize(portfolio.Config{Horizon: 1, Alpha: alpha}, &portfolio.Inputs{
			Lambda:     []float64{lambda},
			PerReqCost: [][]float64{cat.PerRequestCosts(tick)},
			FailProb:   [][]float64{cat.FailProbs(tick)},
			Risk:       cat.CovarianceMatrix(tick, window),
		})
		if err != nil {
			t.Fatal(err)
		}
		w := plan.First().Clone()
		return w.Scale(1 / w.Sum())
	}
	got, err := FreezeWeights(cat, tick, lambda, alpha)
	if err != nil {
		t.Fatal(err)
	}
	want, hourly := frozen(14*24*4), frozen(14*24)
	differs := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("market %d: weight %v, want %v (14-day window)", i, got[i], want[i])
		}
		differs = differs || want[i] != hourly[i]
	}
	if !differs {
		t.Fatal("the 336- and 1,344-interval windows freeze the same weights; the test cannot see the bug")
	}
}
