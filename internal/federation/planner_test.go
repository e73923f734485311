package federation

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
)

// assertValidSplit checks the budget-split invariants the coordinator's
// correctness rests on: every share nonnegative and finite, and the plain
// left-to-right sum EXACTLY equal to total (bitwise, not within epsilon).
func assertValidSplit(t *testing.T, shares []float64, total float64) {
	t.Helper()
	for i, s := range shares {
		if s < 0 || !isFinite(s) {
			t.Fatalf("share[%d] = %g, want nonnegative finite", i, s)
		}
	}
	if got := sumOf(shares); got != total {
		t.Fatalf("sum(shares) = %.17g, want exactly %.17g", got, total)
	}
}

func FuzzFixSum(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-1.0, 0.5, math.NaN(), 0.25, 1e-300, 1e300)
	f.Add(math.Inf(1), 1.0, 2.0, math.Inf(-1), 0.0, 3.0)
	f.Add(1e308, 1e-308, 1e154, 1e-154, 1.0, 7.0)
	f.Add(0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		shares := []float64{a, b, c, d, e, g}
		fixSum(shares, 1.0)
		for i, s := range shares {
			if s < 0 || !isFinite(s) {
				t.Fatalf("share[%d] = %g after fixSum(%v)", i, s, []float64{a, b, c, d, e, g})
			}
		}
		if got := sumOf(shares); got != 1.0 {
			t.Fatalf("sum = %.17g after fixSum(%v), want exactly 1", got, []float64{a, b, c, d, e, g})
		}
	})
}

func TestFixSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		shares := make([]float64, n)
		for i := range shares {
			switch rng.Intn(10) {
			case 0:
				shares[i] = -rng.Float64()
			case 1:
				shares[i] = math.NaN()
			case 2:
				shares[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(600)-300))
			default:
				shares[i] = rng.Float64()
			}
		}
		fixSum(shares, 1.0)
		assertValidSplit(t, shares, 1.0)
	}
}

func TestProportionalSharesSplit(t *testing.T) {
	fed, err := Build(Config{Regions: 4, AZsPerRegion: 2, TypesPerAZ: 3,
		Hours: 24, IncludeOnDemand: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(fed, PlannerConfig{}, nil, nil)
	shares := p.proportionalShares()
	if len(shares) != len(fed.Shards) {
		t.Fatalf("%d shares for %d shards", len(shares), len(fed.Shards))
	}
	assertValidSplit(t, shares, 1.0)
}

func TestReweightKeepsSplitValid(t *testing.T) {
	fed, err := Build(Config{Regions: 4, AZsPerRegion: 2, TypesPerAZ: 2,
		Hours: 24, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(fed, PlannerConfig{}, nil, nil)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		shares := p.proportionalShares()
		results := make([]shardResult, len(fed.Shards))
		for s := range results {
			mc := rng.Float64() * math.Pow(10, float64(rng.Intn(8)-4))
			if rng.Intn(6) == 0 {
				mc = math.Inf(1) // saturated shard
			}
			results[s] = shardResult{mc: mc}
		}
		// A few consecutive reweights from the same state must stay valid too
		// (the coordination loop applies up to CoordRounds-1 of them).
		for r := 0; r < 3; r++ {
			p.reweight(shares, results)
			assertValidSplit(t, shares, 1.0)
		}
	}
}

// fedTestConfig is the shared optimizer config of the equivalence test.
func fedTestConfig() portfolio.Config {
	return portfolio.Config{AMaxPerMarket: 0.4}.WithDefaults()
}

// TestSingleShardMatchesUnshardedPlanner is the acceptance property from the
// issue: a federation of one region/AZ planned by the sharded coordinator must
// be bit-for-bit the unsharded portfolio planner on the same catalog — shard
// share exactly 1.0, no coordination, same warm-start lifecycle.
func TestSingleShardMatchesUnshardedPlanner(t *testing.T) {
	fed, err := Build(Config{Regions: 1, AZsPerRegion: 1, TypesPerAZ: 4,
		Hours: 48, IncludeOnDemand: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedTestConfig()
	covWin := 24

	newWp := func() predict.Predictor {
		return predict.NewSplinePredictor(predict.SplineConfig{
			StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
		}, cfg.Horizon)
	}
	fp := NewPlanner(fed, PlannerConfig{Portfolio: cfg, CovWindow: covWin},
		newWp(), portfolio.MeanRevertSource{Cat: fed.Merged})
	up := portfolio.NewPlanner(cfg, fed.Merged, newWp(), portfolio.MeanRevertSource{Cat: fed.Merged})
	up.CovWindow = covWin

	for step := 1; step <= 8; step++ {
		lambda := 40 + 15*math.Sin(float64(step)/3)
		fd, err := fp.Step(step, lambda)
		if err != nil {
			t.Fatalf("federated step %d: %v", step, err)
		}
		ud, err := up.Step(step, lambda)
		if err != nil {
			t.Fatalf("unsharded step %d: %v", step, err)
		}
		if len(fd.Counts) != len(ud.Counts) {
			t.Fatalf("step %d: count lengths %d vs %d", step, len(fd.Counts), len(ud.Counts))
		}
		for i := range fd.Counts {
			if fd.Counts[i] != ud.Counts[i] {
				t.Fatalf("step %d market %d: counts %d vs %d", step, i, fd.Counts[i], ud.Counts[i])
			}
		}
		for τ := range fd.Plan.Alloc {
			for i := range fd.Plan.Alloc[τ] {
				if fd.Plan.Alloc[τ][i] != ud.Plan.Alloc[τ][i] {
					t.Fatalf("step %d τ=%d market %d: alloc %v vs %v (must be bit-for-bit)",
						step, τ, i, fd.Plan.Alloc[τ][i], ud.Plan.Alloc[τ][i])
				}
			}
		}
		if fd.Plan.WarmStarted != ud.Plan.WarmStarted {
			t.Fatalf("step %d: warm-start divergence %v vs %v", step, fd.Plan.WarmStarted, ud.Plan.WarmStarted)
		}
		st := fp.LastStats()
		if st.Shards != 1 || st.Rounds != 1 {
			t.Fatalf("step %d: single shard ran %d rounds over %d shards", step, st.Rounds, st.Shards)
		}
		if len(st.Shares) != 1 || st.Shares[0] != 1.0 {
			t.Fatalf("step %d: single-shard share = %v, want exactly 1", step, st.Shares)
		}
	}
}

func TestFederatedStepInvariants(t *testing.T) {
	fed, err := Build(Config{Regions: 4, AZsPerRegion: 1, TypesPerAZ: 3,
		Hours: 48, IncludeOnDemand: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedTestConfig()
	wp := predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
	}, cfg.Horizon)
	p := NewPlanner(fed, PlannerConfig{Portfolio: cfg},
		wp, portfolio.MeanRevertSource{Cat: fed.Merged})
	reg := metrics.NewRegistry()
	p.Metrics = reg

	for step := 1; step <= 5; step++ {
		dec, err := p.Step(step, 60)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(dec.Counts) != fed.Len() {
			t.Fatalf("step %d: %d counts for %d markets", step, len(dec.Counts), fed.Len())
		}
		st := p.LastStats()
		if st.Shards != 4 || st.Markets != fed.Len() {
			t.Fatalf("step %d: stats %+v", step, st)
		}
		if st.Rounds < 1 || st.Rounds > p.Cfg.CoordRounds+1 {
			t.Fatalf("step %d: %d coordination rounds", step, st.Rounds)
		}
		assertValidSplit(t, st.Shares, 1.0)
		if len(st.ShardSeconds) != 4 {
			t.Fatalf("step %d: shard timings %v", step, st.ShardSeconds)
		}
		// The input fan-out is timed inside the round's wall time.
		if st.CovarianceSeconds <= 0 || st.CovarianceSeconds > st.WallSeconds {
			t.Fatalf("step %d: covariance %g s vs wall %g s", step, st.CovarianceSeconds, st.WallSeconds)
		}
		if n := reg.Histogram("spotweb_planner_covariance_seconds", "").Count(); n != int64(step) {
			t.Fatalf("step %d: covariance histogram holds %d observations", step, n)
		}
		// The merged first-interval allocation must respect the global budget.
		total := sumOf(dec.Plan.First())
		if total < cfg.AMin-1e-6 || total > cfg.AMax+1e-6 {
			t.Fatalf("step %d: merged allocation %g outside [%g, %g]", step, total, cfg.AMin, cfg.AMax)
		}
	}
}

// TestShardCovarianceParallelBitIdentical: shard covariances run on the shard
// pool with the shared input build as one more task of the fan-out, and
// shards are independent, so every shard's risk operator — the one
// linalg.CompactRisk makes of its dense CovarianceMatrix, applied with the
// same bits — and the merged plan must be the same at any pool width.
func TestShardCovarianceParallelBitIdentical(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4) // before the shared pool is first sized
		defer runtime.GOMAXPROCS(old)
	}
	fed, err := Build(Config{Regions: 3, AZsPerRegion: 2, TypesPerAZ: 4,
		Hours: 72, IncludeOnDemand: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fedTestConfig()
	widths := []int{1, 2, 4}
	planners := make([]*Planner, len(widths))
	for k, w := range widths {
		wp := predict.NewSplinePredictor(predict.SplineConfig{
			StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
		}, cfg.Horizon)
		planners[k] = NewPlanner(fed, PlannerConfig{Portfolio: cfg, CovWindow: 24, Parallelism: w},
			wp, portfolio.MeanRevertSource{Cat: fed.Merged})
	}
	sameBits := func(tag string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", tag, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: element %d: %v vs %v", tag, i, a[i], b[i])
			}
		}
	}
	for step := 30; step < 35; step++ {
		var first *portfolio.Plan
		for k, p := range planners {
			built := false
			risks := p.shardCovariances(step, func() { built = true })
			if !built {
				t.Fatalf("width %d step %d: the build task did not run", widths[k], step)
			}
			for s, sh := range fed.Shards {
				want, _ := linalg.CompactRisk(sh.Cat.CovarianceMatrix(step, 24))
				if !reflect.DeepEqual(risks[s], want) {
					t.Fatalf("width %d step %d shard %d: operator %T differs from CompactRisk(CovarianceMatrix)'s %T",
						widths[k], step, s, risks[s], want)
				}
				n := sh.Cat.Len()
				x := linalg.NewVector(n)
				for i := range x {
					x[i] = float64(i%5) - 1.75
				}
				sameBits("shard operator", risks[s].MulVec(x, linalg.NewVector(n)), want.MulVec(x, linalg.NewVector(n)))
			}
			dec, err := p.Step(step, 60+float64(step%7))
			if err != nil {
				t.Fatalf("width %d step %d: %v", widths[k], step, err)
			}
			if first == nil {
				first = dec.Plan
				continue
			}
			if dec.Plan.Iterations != first.Iterations || dec.Plan.RiskCoupled != first.RiskCoupled {
				t.Fatalf("width %d step %d: iterations/coupled %d/%d vs %d/%d", widths[k], step,
					dec.Plan.Iterations, dec.Plan.RiskCoupled, first.Iterations, first.RiskCoupled)
			}
			for τ := range first.Alloc {
				sameBits("merged plan", dec.Plan.Alloc[τ], first.Alloc[τ])
			}
		}
		// On-demand twins are never coupled; a transient market whose window
		// happens to be constant is not either.
		if first.RiskCoupled <= 0 || first.RiskCoupled > fed.Len()/2 {
			t.Fatalf("step %d: merged RiskCoupled = %d, want 1..%d (the transient markets)", step, first.RiskCoupled, fed.Len()/2)
		}
	}
}

// TestPlannerRejectsNonFinitePlan: a NaN at interval 0 of every transient
// market's failure-probability series reaches each shard's covariance from
// interval 2 on, and the shard solves end with NaN allocations; Step must
// return an error, counted in spotweb_solver_errors_total, instead of a
// Decision sized from them.
func TestPlannerRejectsNonFinitePlan(t *testing.T) {
	fed, err := Build(Config{Regions: 2, AZsPerRegion: 1, TypesPerAZ: 6, Hours: 48, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range fed.Merged.Markets {
		if mk.Transient {
			mk.FailProb.Values[0] = math.NaN()
		}
	}
	cfg := fedTestConfig()
	reg := metrics.NewRegistry()
	wp := predict.NewSplinePredictor(predict.SplineConfig{StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99}, cfg.Horizon)
	p := NewPlanner(fed, PlannerConfig{Portfolio: cfg}, wp, portfolio.ReactiveSource{Cat: fed.Merged})
	p.Metrics = reg
	if _, err := p.Step(1, 60); err != nil {
		t.Fatalf("step 1: %v", err)
	}
	if dec, err := p.Step(2, 60); err == nil {
		t.Fatalf("step 2 planned counts %v from allocations %v", dec.Counts, dec.Plan.First())
	}
	if v := reg.Counter("spotweb_solver_errors_total", "").Value(); v != 1 {
		t.Fatalf("spotweb_solver_errors_total = %d, want 1", v)
	}
}
