package portfolio

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
)

// kktInputs builds a random but well-conditioned MPO input set of n markets
// over horizon h: SPD risk, per-period costs/failure probabilities with mild
// drift, and a previous allocation so the churn term is fully exercised.
func kktInputs(rng *rand.Rand, n, h int) *Inputs {
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	risk.ScaleInPlace(0.01 / float64(n))
	risk.AddDiag(0.005)
	in := &Inputs{Risk: risk}
	base := make([]float64, n)
	fail := make([]float64, n)
	for i := range base {
		base[i] = 0.002 + 0.008*rng.Float64()
		fail[i] = 0.1 * rng.Float64()
	}
	for τ := 0; τ < h; τ++ {
		costs := make([]float64, n)
		fails := make([]float64, n)
		for i := range costs {
			costs[i] = base[i] * (1 + 0.05*math.Sin(float64(τ+i)))
			fails[i] = fail[i]
		}
		in.Lambda = append(in.Lambda, 100+5*float64(τ))
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	prev := linalg.NewVector(n)
	for i := range prev {
		prev[i] = rng.Float64() * 1.2 / float64(n)
	}
	in.PrevAlloc = prev
	return in
}

func kktCfg(h int, path KKTPath) Config {
	return Config{
		Horizon: h, ChurnKappa: 0.5, Solver: SolverADMM, KKT: path,
		Alpha: 5, AMin: 1, AMax: 1.5, AMaxPerMarket: 1,
	}
}

// The dense and structured KKT paths must produce interchangeable plans: the
// same first-interval allocation within solver tolerance at convergence, and
// near-identical trajectories when capped at a fixed iteration count (both
// paths solve the identical x-update system; only factorization round-off
// differs).
func TestKKTPathEquivalenceFirstInterval(t *testing.T) {
	sizes := []struct {
		n, h    int
		maxIter int // 0 = run to convergence
	}{
		{10, 4, 0},
		{50, 12, 0},
	}
	if raceEnabled {
		// Race instrumentation makes the dense factorizations ~10× slower;
		// a smaller mid-size case keeps the same coverage cheap.
		sizes = []struct{ n, h, maxIter int }{{10, 4, 0}, {24, 8, 0}}
	}
	if !raceEnabled && !testing.Short() {
		// The large case compares capped trajectories: one dense (nh+h)³
		// factorization is the cost ceiling, the iterations after it are
		// cheap. Skipped under -race where the instrumented factor would
		// dominate the whole package's runtime.
		sizes = append(sizes, struct{ n, h, maxIter int }{200, 12, 20})
	}
	for _, sz := range sizes {
		rng := rand.New(rand.NewSource(int64(101 + sz.n)))
		in := kktInputs(rng, sz.n, sz.h)
		cfgD := kktCfg(sz.h, KKTDense)
		cfgS := kktCfg(sz.h, KKTSparse)
		cfgD.MaxIter = sz.maxIter
		cfgS.MaxIter = sz.maxIter
		pd, err := Optimize(cfgD, in)
		if err != nil {
			t.Fatalf("n=%d h=%d dense: %v", sz.n, sz.h, err)
		}
		ps, err := Optimize(cfgS, in)
		if err != nil {
			t.Fatalf("n=%d h=%d sparse: %v", sz.n, sz.h, err)
		}
		if pd.KKTPath != "dense" || ps.KKTPath != "sparse" {
			t.Fatalf("n=%d h=%d: paths %q/%q, want dense/sparse", sz.n, sz.h, pd.KKTPath, ps.KKTPath)
		}
		tol := 1e-4
		if sz.maxIter > 0 {
			// Capped run: iterates track each other to factorization
			// round-off, far tighter than the convergence tolerance.
			tol = 1e-6
		}
		for τ := 0; τ < sz.h; τ++ {
			ad, as := pd.Alloc[τ], ps.Alloc[τ]
			for i := range ad {
				if math.Abs(ad[i]-as[i]) > tol {
					t.Fatalf("n=%d h=%d τ=%d market %d: dense %v vs sparse %v",
						sz.n, sz.h, τ, i, ad[i], as[i])
				}
			}
		}
		if d := math.Abs(pd.Objective - ps.Objective); d > 1e-5*(math.Abs(pd.Objective)+1) {
			t.Fatalf("n=%d h=%d: objective dense %v vs sparse %v", sz.n, sz.h, pd.Objective, ps.Objective)
		}
	}
}

// A warm-started receding-horizon trace must stay equivalent across paths:
// ten rounds of drifting inputs, each solve seeded from the previous round's
// shifted state, first-interval allocations agreeing round by round.
func TestKKTPathEquivalenceWarmTrace(t *testing.T) {
	n, h, rounds := 50, 12, 10
	if raceEnabled {
		n, h, rounds = 16, 6, 6
	}
	cat := market.CatalogConfig{Seed: 17, NumTypes: n, Hours: 72, SamplesPerHour: 6}.Generate()
	mk := func(path KKTPath) *Planner {
		return NewPlanner(Config{Horizon: h, ChurnKappa: 0.5, Solver: SolverADMM, KKT: path},
			cat, testPredictor(cat), ReactiveSource{Cat: cat})
	}
	pd := mk(KKTDense)
	ps := mk(KKTSparse)
	warmRounds := 0
	for tick := 0; tick < rounds; tick++ {
		dd, err := pd.Step(tick, sineLoad(tick))
		if err != nil {
			t.Fatalf("round %d dense: %v", tick, err)
		}
		ds, err := ps.Step(tick, sineLoad(tick))
		if err != nil {
			t.Fatalf("round %d sparse: %v", tick, err)
		}
		fd, fs := dd.Plan.First(), ds.Plan.First()
		for i := range fd {
			if math.Abs(fd[i]-fs[i]) > 2e-4 {
				t.Fatalf("round %d market %d: dense %v vs sparse %v", tick, i, fd[i], fs[i])
			}
		}
		if ds.Plan.WarmStarted {
			warmRounds++
		}
		if ds.Plan.KKTPath != "sparse" {
			t.Fatalf("round %d: sparse planner took path %q", tick, ds.Plan.KKTPath)
		}
	}
	if warmRounds == 0 {
		t.Fatal("sparse path never warm-started across the trace")
	}
}

// KKTAuto must select dense below the threshold and sparse at/above it, and
// the explicit overrides must win at any size.
func TestKKTAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	solve := func(n, h int, path KKTPath) *Plan {
		t.Helper()
		p, err := Optimize(kktCfg(h, path), kktInputs(rng, n, h))
		if err != nil {
			t.Fatalf("n=%d h=%d path=%v: %v", n, h, path, err)
		}
		return p
	}
	if got := solve(5, 4, KKTAuto).KKTPath; got != "dense" { // 20 < 128
		t.Fatalf("auto at n·h=20 chose %q, want dense", got)
	}
	if got := solve(16, 8, KKTAuto).KKTPath; got != "sparse" { // 128 ≥ 128
		t.Fatalf("auto at n·h=128 chose %q, want sparse", got)
	}
	if got := solve(5, 4, KKTSparse).KKTPath; got != "sparse" {
		t.Fatalf("forced sparse at n·h=20 reports %q", got)
	}
	if got := solve(16, 8, KKTDense).KKTPath; got != "dense" {
		t.Fatalf("forced dense at n·h=128 reports %q", got)
	}
}

// Each ADMM solve must export its executed backend as the path label on
// spotweb_solver_kkt_path; FISTA rounds (no KKT system) must not tick it.
func TestKKTPathMetric(t *testing.T) {
	cat := market.CatalogConfig{Seed: 3, NumTypes: 6, Hours: 48}.Generate()
	reg := metrics.NewRegistry()
	pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5, Solver: SolverADMM, KKT: KKTSparse},
		cat, testPredictor(cat), ReactiveSource{Cat: cat})
	pl.Metrics = reg
	const rounds = 2
	for tick := 0; tick < rounds; tick++ {
		if _, err := pl.Step(tick, sineLoad(tick)); err != nil {
			t.Fatalf("step %d: %v", tick, err)
		}
	}
	kktCounter := func(path string) int64 {
		return reg.Counter("spotweb_solver_kkt_path",
			"ADMM solves by KKT factorization path (dense vs structured sparse).",
			metrics.L("path", path)).Value()
	}
	if got := kktCounter("sparse"); got != rounds {
		t.Fatalf("spotweb_solver_kkt_path{path=sparse} = %d, want %d", got, rounds)
	}
	if got := kktCounter("dense"); got != 0 {
		t.Fatalf("spotweb_solver_kkt_path{path=dense} = %d, want 0", got)
	}

	fp := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5, Solver: SolverFISTA},
		cat, testPredictor(cat), ReactiveSource{Cat: cat})
	fp.Metrics = reg
	if _, err := fp.Step(0, sineLoad(0)); err != nil {
		t.Fatalf("fista step: %v", err)
	}
	if got := kktCounter("sparse") + kktCounter("dense"); got != rounds {
		t.Fatalf("FISTA round ticked spotweb_solver_kkt_path (total %d, want %d)", got, rounds)
	}
}

// Guardrail: at n=1000, h=24 the structured builder must produce a valid
// problem without allocating anything near the dense (nh)² Hessian or the
// (nh+h)×nh constraint matrix (which would be ~4.6 GB and ~4.6 GB); the whole
// build must stay in the tens of megabytes.
func TestKKTSparseBuildAvoidsDenseAllocation(t *testing.T) {
	n, h := 1000, 24
	if raceEnabled {
		n = 250 // dense P would still be 288 MB; the bound below stays sharp
	}
	rng := rand.New(rand.NewSource(99))
	in := kktInputs(rng, n, h)
	cfg := kktCfg(h, KKTSparse).WithDefaults()
	kappa := cfg.churnWeight(in, n)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prob := cfg.buildADMMSparse(in, n, kappa, nil)
	runtime.ReadMemStats(&after)

	if err := prob.Validate(); err != nil {
		t.Fatalf("structured problem invalid: %v", err)
	}
	if prob.P != nil || prob.A != nil {
		t.Fatal("structured builder materialized a dense matrix")
	}
	if prob.Block == nil || prob.Block.N != n || prob.Block.H != h {
		t.Fatalf("structure declaration missing or wrong: %+v", prob.Block)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const limit = 64 << 20
	if allocated > limit {
		t.Fatalf("structured build allocated %d MB, want < %d MB (dense-free)",
			allocated>>20, limit>>20)
	}
	runtime.KeepAlive(prob)
}
