package portfolio

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/solver"
)

// diagRisk returns a diagonal risk matrix with the given variances.
func diagRisk(vars ...float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(vars), len(vars))
	for i, v := range vars {
		m.Set(i, i, v)
	}
	return m
}

// uniformInputs builds inputs with the same costs at every horizon step.
func uniformInputs(h int, lambda float64, costs, fails []float64, risk *linalg.Matrix) *Inputs {
	in := &Inputs{Risk: risk}
	for τ := 0; τ < h; τ++ {
		in.Lambda = append(in.Lambda, lambda)
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	return in
}

func TestOptimizeConcentratesOnCheapMarket(t *testing.T) {
	cfg := Config{Horizon: 1, Alpha: 0.0001, AMin: 1, AMax: 1.2, AMaxPerMarket: 1}
	in := uniformInputs(1, 100, []float64{0.001, 0.01}, []float64{0.05, 0.05},
		diagRisk(1e-4, 1e-4))
	plan, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.First()
	if a[0] < 0.9 {
		t.Fatalf("cheap market should dominate: alloc %v", a)
	}
	if s := a.Sum(); s < 1-1e-4 || s > 1.2+1e-4 {
		t.Fatalf("allocation sum %v outside [AMin, AMax]", s)
	}
}

// Non-finite forecasts used to pass Validate (only Lambda was checked for
// NaN) and come back as a plan full of NaN with Status solved.
func TestValidateRejectsNonFiniteForecasts(t *testing.T) {
	cfg := Config{Horizon: 2}
	fresh := func() *Inputs {
		return &Inputs{
			Lambda:     []float64{100, 100},
			PerReqCost: [][]float64{{0.001, 0.01}, {0.001, 0.01}},
			FailProb:   [][]float64{{0.05, 0.05}, {0.05, 0.05}},
			Risk:       diagRisk(1e-4, 1e-4),
		}
	}
	if _, err := Optimize(cfg, fresh()); err != nil {
		t.Fatalf("finite inputs rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, poison := range map[string]func(in *Inputs){
			"lambda":   func(in *Inputs) { in.Lambda[1] = bad },
			"cost":     func(in *Inputs) { in.PerReqCost[1][0] = bad },
			"failprob": func(in *Inputs) { in.FailProb[0][1] = bad },
		} {
			in := fresh()
			poison(in)
			if plan, err := Optimize(cfg, in); err == nil {
				t.Fatalf("%s = %v accepted: status %v, first allocation %v", name, bad, plan.Status, plan.First())
			}
		}
	}
}

// A non-finite Risk entry is not scanned for by Validate (n² entries); the
// solver's NaN residual must turn it into a non-converged plan, and through
// the WarmSolver into a counted cold fallback, never a plan marked solved.
func TestNonFiniteRiskIsNotConverged(t *testing.T) {
	cat := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 48}.Generate()
	reg := metrics.NewRegistry()
	ws := WarmSolver{Metrics: reg}
	b := InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	cfg := Config{Horizon: 3}
	solve := func(tick int, poison bool) *Plan {
		in, epoch := b.Build(tick, cfg.Horizon, sineLoad(tick))
		m := cat.CovarianceMatrix(tick, cat.TwoWeekWindow())
		if poison {
			m.Set(1, 2, math.NaN())
		}
		in.Risk = m
		plan, err := ws.Solve(cfg, cat, in, epoch)
		if err != nil {
			t.Fatal(err)
		}
		ws.Shift(cat.Len())
		return plan
	}
	if plan := solve(0, false); plan.Status != solver.StatusSolved {
		t.Fatalf("clean round: %v", plan.Status)
	}
	plan := solve(1, true) // warm-started, poisoned
	if plan.Status != solver.StatusMaxIterations || !math.IsNaN(plan.PriRes) || plan.WarmStarted {
		t.Fatalf("poisoned round: status %v, residual %v, warm %v; want the cold re-solve's max_iterations with a NaN residual",
			plan.Status, plan.PriRes, plan.WarmStarted)
	}
	if v := reg.Counter("spotweb_planner_fallback_total", "").Value(); v != 1 {
		t.Fatalf("fallback counter = %d after the poisoned warm round, want 1", v)
	}
	if plan := solve(2, false); plan.Status != solver.StatusSolved || plan.WarmStarted {
		t.Fatalf("round after the poisoned one: status %v, warm %v; want a cold solved round", plan.Status, plan.WarmStarted)
	}
}

func TestPerMarketCapForcesDiversification(t *testing.T) {
	cfg := Config{Horizon: 1, Alpha: 0.0001, AMin: 1, AMax: 1.2, AMaxPerMarket: 0.4}
	in := uniformInputs(1, 100, []float64{0.001, 0.01, 0.02}, []float64{0.05, 0.05, 0.05},
		diagRisk(1e-4, 1e-4, 1e-4))
	plan, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.First()
	for i, v := range a {
		if v > 0.4+1e-6 {
			t.Fatalf("market %d allocation %v exceeds aMax", i, v)
		}
	}
	// Cap 0.4 with AMin 1 needs at least three markets.
	nonzero := 0
	for _, v := range a {
		if v > 1e-6 {
			nonzero++
		}
	}
	if nonzero < 3 {
		t.Fatalf("expected forced diversification, got %v", a)
	}
}

func TestRiskAversionDiversifies(t *testing.T) {
	// Two markets with identical cost; market correlations make spreading
	// optimal once alpha is large.
	risk := linalg.NewMatrix(2, 2)
	risk.Set(0, 0, 0.01)
	risk.Set(1, 1, 0.01)
	// Independent markets: variance of the mix is minimized at 50/50.
	costs := []float64{0.001, 0.001}
	fails := []float64{0.05, 0.05}

	concentrated := func(alpha float64) float64 {
		cfg := Config{Horizon: 1, Alpha: alpha, AMin: 1, AMax: 1.0001, AMaxPerMarket: 1}
		plan, err := Optimize(cfg, uniformInputs(1, 100, costs, fails, risk))
		if err != nil {
			t.Fatal(err)
		}
		a := plan.First()
		return math.Abs(a[0] - a[1])
	}
	if d := concentrated(50); d > 0.05 {
		t.Fatalf("high risk aversion should split ≈50/50, imbalance %v", d)
	}
}

func TestCorrelatedMarketsAvoided(t *testing.T) {
	// Three markets: 0 and 1 strongly correlated, 2 independent. Equal
	// costs. The optimizer should put more weight on 2 than on 0 or 1.
	risk := linalg.NewMatrix(3, 3)
	risk.Set(0, 0, 0.01)
	risk.Set(1, 1, 0.01)
	risk.Set(2, 2, 0.01)
	risk.Set(0, 1, 0.009)
	risk.Set(1, 0, 0.009)
	cfg := Config{Horizon: 1, Alpha: 50, AMin: 1, AMax: 1.0001, AMaxPerMarket: 1}
	in := uniformInputs(1, 100, []float64{0.001, 0.001, 0.001}, []float64{0.05, 0.05, 0.05}, risk)
	plan, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.First()
	if a[2] <= a[0] || a[2] <= a[1] {
		t.Fatalf("independent market should get most weight: %v", a)
	}
}

// The paper's Example 1 dynamic: future knowledge changes today's choice.
// Market A is cheapest this interval but becomes expensive; market B is
// slightly dearer now but stays cheap. With churn costs, MPO provisions B
// now, while SPO (H = 1) chases A.
func TestMPOExploitsFutureKnowledge(t *testing.T) {
	risk := diagRisk(1e-4, 1e-4)
	costA := []float64{0.001, 0.010, 0.010, 0.010}
	costB := []float64{0.002, 0.002, 0.002, 0.002}
	mkInputs := func(h int) *Inputs {
		in := &Inputs{Risk: risk}
		for τ := 0; τ < h; τ++ {
			in.Lambda = append(in.Lambda, 100)
			in.PerReqCost = append(in.PerReqCost, []float64{costA[τ], costB[τ]})
			in.FailProb = append(in.FailProb, []float64{0.05, 0.05})
		}
		return in
	}
	spoCfg := Config{Horizon: 1, Alpha: 0.001, AMin: 1, AMax: 1.1, AMaxPerMarket: 1, ChurnKappa: 50}
	mpoCfg := spoCfg
	mpoCfg.Horizon = 4

	spo, err := Optimize(spoCfg, mkInputs(1))
	if err != nil {
		t.Fatal(err)
	}
	mpo, err := Optimize(mpoCfg, mkInputs(4))
	if err != nil {
		t.Fatal(err)
	}
	if spo.First()[0] < spo.First()[1] {
		t.Fatalf("SPO should chase the currently cheap market A: %v", spo.First())
	}
	if mpo.First()[1] < mpo.First()[0] {
		t.Fatalf("MPO should pre-position on market B: %v", mpo.First())
	}
}

func TestPlanWithinConstraintsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(8)
		h := 1 + rng.Intn(5)
		costs := make([]float64, n)
		fails := make([]float64, n)
		vars := make([]float64, n)
		for i := 0; i < n; i++ {
			costs[i] = 0.0005 + 0.01*rng.Float64()
			fails[i] = 0.2 * rng.Float64()
			vars[i] = 0.001 + 0.01*rng.Float64()
		}
		cfg := Config{Horizon: h, Alpha: 5, AMin: 1, AMax: 1.5,
			AMaxPerMarket: 0.3 + 0.7*rng.Float64(), ChurnKappa: rng.Float64()}
		if cfg.AMin > float64(n)*cfg.AMaxPerMarket {
			continue
		}
		in := uniformInputs(h, 50+500*rng.Float64(), costs, fails, diagRisk(vars...))
		prev := linalg.NewVector(n)
		prev[0] = 1
		in.PrevAlloc = prev
		plan, err := Optimize(cfg, in)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for τ, a := range plan.Alloc {
			s := a.Sum()
			if s < cfg.AMin-1e-3 || s > cfg.AMax+1e-3 {
				t.Fatalf("iter %d τ=%d: sum %v outside band", iter, τ, s)
			}
			for i, v := range a {
				if v < -1e-9 || v > cfg.AMaxPerMarket+1e-3 {
					t.Fatalf("iter %d τ=%d market %d: alloc %v outside box", iter, τ, i, v)
				}
			}
		}
	}
}

// The matrix-free horizon operator must agree with the dense Hessian
// assembled from its definition.
func TestHorizonOperatorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n, h := 4, 3
	risk := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64() * 0.01
			risk.Set(i, j, v)
			risk.Set(j, i, v)
		}
		risk.Set(i, i, risk.At(i, i)+0.05)
	}
	op := &horizonOperator{m: risk, alpha: 5, kappa: 0.7, n: n, h: h}
	// Dense counterpart: block-diagonal 2αM plus the churn tridiagonal.
	x := linalg.NewVector(n * h)
	dst := linalg.NewVector(n * h)
	dense := linalg.NewMatrix(n*h, n*h)
	{
		cfg := Config{Horizon: h, Alpha: 5, ChurnKappa: 0.7, AMin: 1, AMax: 1.5, AMaxPerMarket: 1}
		in := uniformInputs(h, 100, make([]float64, n), make([]float64, n), risk)
		_ = in
		for τ := 0; τ < h; τ++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					dense.Set(τ*n+i, τ*n+j, 2*cfg.Alpha*risk.At(i, j))
				}
			}
		}
		k2 := 2 * cfg.ChurnKappa
		for τ := 0; τ < h; τ++ {
			diagCount := 1.0
			if τ+1 < h {
				diagCount = 2.0
			}
			for i := 0; i < n; i++ {
				dense.Set(τ*n+i, τ*n+i, dense.At(τ*n+i, τ*n+i)+k2*diagCount)
				if τ > 0 {
					dense.Set(τ*n+i, (τ-1)*n+i, dense.At(τ*n+i, (τ-1)*n+i)-k2)
					dense.Set((τ-1)*n+i, τ*n+i, dense.At((τ-1)*n+i, τ*n+i)-k2)
				}
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		op.Apply(x, dst)
		want := linalg.NewVector(n * h)
		dense.MulVec(x, want)
		for i := range dst {
			if math.Abs(dst[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("operator mismatch at %d: %v vs %v", i, dst[i], want[i])
			}
		}
	}
	// Apply runs every solver iteration: no allocation, churn term or not.
	for _, kappa := range []float64{0, 0.7} {
		op.kappa = kappa
		if a := testing.AllocsPerRun(50, func() { op.Apply(x, dst) }); a != 0 {
			t.Fatalf("κ = %v: Apply allocates %v objects per call", kappa, a)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	risk := diagRisk(0.01, 0.01)
	one := Config{Horizon: 1}
	for _, tc := range []struct {
		name string
		cfg  Config
		in   *Inputs
		want string // substring the error must carry ("" = any error)
	}{
		{"nil risk", one, &Inputs{Lambda: []float64{1}, PerReqCost: [][]float64{{1, 1}}, FailProb: [][]float64{{0, 0}}}, ""},
		{"horizon mismatch", one, &Inputs{Lambda: []float64{1, 2}, PerReqCost: [][]float64{{1, 1}}, FailProb: [][]float64{{0, 0}}, Risk: risk}, ""},
		{"ragged costs", one, &Inputs{Lambda: []float64{1}, PerReqCost: [][]float64{{1}}, FailProb: [][]float64{{0, 0}}, Risk: risk}, ""},
		{"negative lambda", one, &Inputs{Lambda: []float64{-1}, PerReqCost: [][]float64{{1, 1}}, FailProb: [][]float64{{0, 0}}, Risk: risk}, ""},
		{"mis-sized PrevAlloc", one, &Inputs{Lambda: []float64{1}, PerReqCost: [][]float64{{1, 1}}, FailProb: [][]float64{{0, 0}}, Risk: risk,
			PrevAlloc: linalg.NewVector(3)}, ""},
		{"unreachable AMin", Config{Horizon: 1, AMin: 3, AMaxPerMarket: 1},
			uniformInputs(1, 100, []float64{0.001, 0.001}, []float64{0, 0}, risk), "AMin"},
		// ADMM assembles its KKT blocks from the dense matrix; the error must
		// say so instead of an opaque "solver failed".
		{"ADMM with a non-dense risk", Config{Horizon: 1, Solver: SolverADMM},
			&Inputs{Lambda: []float64{1}, PerReqCost: [][]float64{{1, 1}}, FailProb: [][]float64{{0, 0}}, Risk: perPeriodRisk{risk}},
			"SolverADMM needs the dense Inputs.Risk"},
	} {
		_, err := Optimize(tc.cfg, tc.in)
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the cause (%q)", tc.name, err, tc.want)
		}
	}
}

func TestServerCounts(t *testing.T) {
	alloc := linalg.Vector{0.5, 0.5, 0.0004} // 0.0004·1000/10 = 0.04 of a server
	caps := []float64{100, 50, 10}
	counts := ServerCounts(alloc, 1000, caps, 0.05)
	if counts[0] != 5 || counts[1] != 10 {
		t.Fatalf("counts = %v, want [5 10 0]", counts)
	}
	if counts[2] != 0 {
		t.Fatalf("sliver allocation should be dropped, got %d", counts[2])
	}
	if got := CapacityOf(counts, caps); got != 1000 {
		t.Fatalf("CapacityOf = %v", got)
	}
	// Rounding up: 0.55 × 100 / 100 = 0.55 → 1 server.
	counts = ServerCounts(linalg.Vector{0.55}, 100, []float64{100}, 0.05)
	if counts[0] != 1 {
		t.Fatalf("ceil broken: %v", counts)
	}
	if c := ServerCounts(alloc, 0, caps, 0.05); c[0] != 0 {
		t.Fatal("zero lambda should yield zero servers")
	}
}

func TestCostModelHelpers(t *testing.T) {
	cfg := Config{}.WithDefaults()
	alloc := linalg.Vector{0.5, 0.5}
	prov := cfg.ProvisioningCost(alloc, 100, []float64{0.01, 0.02})
	if math.Abs(prov-(0.5*100*0.01+0.5*100*0.02)) > 1e-12 {
		t.Fatalf("ProvisioningCost = %v", prov)
	}
}

func TestPlannerEndToEnd(t *testing.T) {
	cat := market.CatalogConfig{Seed: 3, NumTypes: 6, Hours: 24 * 21}.Generate()
	wl := predict.NewSplinePredictor(predict.SplineConfig{ARLag1: true, CIProb: 0.99}, 4)
	pl := NewPlanner(Config{Horizon: 4}, cat, wl, ReactiveSource{Cat: cat})

	lambda := func(t int) float64 { return 500 + 200*math.Sin(float64(t)*2*math.Pi/24) }
	var lastDec *Decision
	shortfalls := 0
	steps := 24 * 7
	for k := 0; k < steps; k++ {
		dec, err := pl.Step(k, lambda(k))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Capacity <= 0 {
			t.Fatalf("step %d: no capacity provisioned", k)
		}
		if k > 48 && dec.Capacity < lambda(k+1) {
			shortfalls++
		}
		lastDec = dec
	}
	if lastDec == nil || len(lastDec.Counts) != cat.Len() {
		t.Fatal("decision malformed")
	}
	if frac := float64(shortfalls) / float64(steps-48); frac > 0.1 {
		t.Fatalf("capacity shortfall fraction %v too high", frac)
	}
}

func TestPlanSolveTimeRecorded(t *testing.T) {
	in := uniformInputs(2, 100, []float64{0.001, 0.002}, []float64{0.05, 0.05}, diagRisk(0.01, 0.01))
	plan, err := Optimize(Config{Horizon: 2}, in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SolveTime <= 0 {
		t.Fatal("SolveTime not recorded")
	}
	if plan.Status == solver.StatusError {
		t.Fatal("unexpected error status")
	}
}
