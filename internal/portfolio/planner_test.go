package portfolio

import (
	"math"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/predict"
)

func testPredictor(cat *market.Catalog) predict.Predictor {
	return predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: cat.StepHrs, ARLag1: true, CIProb: 0.99,
	}, 4)
}

// sineLoad is the deterministic workload trace the planner tests replay.
func sineLoad(t int) float64 {
	return 400 + 150*math.Sin(float64(t)*2*math.Pi/24)
}

// Regression for the forecast-source aliasing bug: each horizon row must be
// an independent copy, so mutating one period's forecast cannot corrupt the
// others.
func TestForecastRowsIndependent(t *testing.T) {
	cat := market.CatalogConfig{Seed: 3, NumTypes: 5, Hours: 48}.Generate()
	const tick, h = 7, 4
	cases := map[string][][]float64{
		"reactive-costs":   ReactiveSource{Cat: cat}.PerReqCosts(tick, h),
		"reactive-fails":   ReactiveSource{Cat: cat}.FailProbs(tick, h),
		"meanrevert-fails": MeanRevertSource{Cat: cat}.FailProbs(tick, h),
	}
	for name, rows := range cases {
		if len(rows) != h {
			t.Fatalf("%s: got %d rows, want %d", name, len(rows), h)
		}
		want := append([]float64(nil), rows[1]...)
		for i := range rows[0] {
			rows[0][i] = -1 // simulate a downstream per-period transform
		}
		for k := 1; k < h; k++ {
			for i := range rows[k] {
				if rows[k][i] != want[i] {
					t.Fatalf("%s: mutating row 0 leaked into row %d at market %d", name, k, i)
				}
			}
		}
	}
}

// The reactive forecast must still equal the current interval's values.
func TestReactiveSourceMatchesPresent(t *testing.T) {
	cat := market.CatalogConfig{Seed: 9, NumTypes: 4, Hours: 24}.Generate()
	src := ReactiveSource{Cat: cat}
	now := cat.PerRequestCosts(5)
	for k, row := range src.PerReqCosts(5, 3) {
		for i := range row {
			if row[i] != now[i] {
				t.Fatalf("row %d market %d: %v != current %v", k, i, row[i], now[i])
			}
		}
	}
}

// perSampleMeanRevert is MeanRevertSource.PerReqCosts as it was written
// before the window read the price slice directly: one clamped
// PerRequestCostAt per sample of the trailing mean.
func perSampleMeanRevert(s MeanRevertSource, t, h int) [][]float64 {
	n := s.Cat.Len()
	lo := max(t-s.window(), 0)
	means := make([]float64, n)
	for i, m := range s.Cat.Markets {
		if t <= lo {
			means[i] = m.PerRequestCostAt(t)
			continue
		}
		var sum float64
		for k := lo; k <= t; k++ {
			sum += m.PerRequestCostAt(k)
		}
		means[i] = sum / float64(t-lo+1)
	}
	now := s.Cat.PerRequestCosts(t)
	out := make([][]float64, h)
	for k := range out {
		decay := math.Exp(-s.theta() * float64(k+1))
		out[k] = make([]float64, n)
		for i := range out[k] {
			out[k][i] = means[i] + (now[i]-means[i])*decay
		}
	}
	return out
}

// TestMeanRevertPerReqCostsBits holds the trailing price mean to the
// per-sample loop bit for bit: windows inside the series, windows that start
// at 0, windows that run past the final interval by one sample or wholly,
// t = 0, and a window of one sample.
func TestMeanRevertPerReqCostsBits(t *testing.T) {
	cat := market.CatalogConfig{Seed: 35, NumTypes: 9, IncludeOnDemand: true, Hours: 24 * 9}.Generate()
	T := cat.Intervals
	for _, src := range []MeanRevertSource{{Cat: cat}, {Cat: cat, Window: 1}, {Cat: cat, Window: 31, Theta: 0.2}} {
		for _, tt := range []int{0, 1, 5, 24 * 7, T - 2, T - 1, T, T + 3, T + 24*8} {
			got, want := src.PerReqCosts(tt, 4), perSampleMeanRevert(src, tt, 4)
			for k := range want {
				for i := range want[k] {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
						t.Fatalf("window %d t=%d row %d market %d: %v, per-sample loop %v",
							src.window(), tt, k, i, got[k][i], want[k][i])
					}
				}
			}
		}
	}
}

// OracleSource near the end of the trace: horizon indices past the final
// interval must clamp to it instead of reading out of range.
func TestOracleSourceTailClamp(t *testing.T) {
	cat := market.CatalogConfig{Seed: 5, NumTypes: 4, Hours: 24}.Generate()
	src := OracleSource{Cat: cat}
	T := cat.Intervals
	const h = 4

	// t = T−1: every horizon step t+1+k is past the end → all rows are the
	// final interval's values.
	last := cat.PerRequestCosts(T - 1)
	lastF := cat.FailProbs(T - 1)
	costs := src.PerReqCosts(T-1, h)
	fails := src.FailProbs(T-1, h)
	for k := 0; k < h; k++ {
		for i := range last {
			if costs[k][i] != last[i] {
				t.Fatalf("t=T-1 costs row %d market %d: %v, want final-interval %v", k, i, costs[k][i], last[i])
			}
			if fails[k][i] != lastF[i] {
				t.Fatalf("t=T-1 fails row %d market %d: %v, want final-interval %v", k, i, fails[k][i], lastF[i])
			}
		}
	}

	// t = T−h: steps T−h+1 .. T−1 are in range, the last step (index T)
	// clamps to T−1.
	costs = src.PerReqCosts(T-h, h)
	for k := 0; k < h; k++ {
		idx := T - h + 1 + k
		if idx > T-1 {
			idx = T - 1
		}
		want := cat.PerRequestCosts(idx)
		for i := range want {
			if costs[k][i] != want[i] {
				t.Fatalf("t=T-h costs row %d market %d: %v, want interval-%d %v", k, i, costs[k][i], idx, want[i])
			}
		}
	}
}

// A warm-started solve that blows its iteration budget must be discarded and
// re-solved cold, with the fallback counter ticking exactly once; cold
// non-converged rounds must not tick it, and the planner must recover to
// warm-started rounds once the budget is restored.
func TestPlannerWarmFallbackCounter(t *testing.T) {
	cat := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 48}.Generate()
	reg := metrics.NewRegistry()
	pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
	pl.Metrics = reg
	fallback := reg.Counter("spotweb_planner_fallback_total",
		"Warm-started solves that failed to converge and were re-solved cold.")

	step := func(tick int) *Decision {
		t.Helper()
		dec, err := pl.Step(tick, sineLoad(tick))
		if err != nil {
			t.Fatalf("step %d: %v", tick, err)
		}
		return dec
	}

	// Converged rounds build up warm state; no fallbacks.
	for tick := 0; tick < 3; tick++ {
		step(tick)
	}
	if v := fallback.Value(); v != 0 {
		t.Fatalf("fallback counter = %d after converged rounds, want 0", v)
	}
	if n := reg.Histogram("spotweb_planner_covariance_seconds", "").Count(); n != 3 {
		t.Fatalf("covariance histogram holds %d observations after 3 rounds", n)
	}

	// Starve the budget: the warm-started round fails, falls back cold once.
	pl.Cfg.MaxIter = 1
	step(3)
	if v := fallback.Value(); v != 1 {
		t.Fatalf("fallback counter = %d after starved warm round, want 1", v)
	}

	// Warm state was discarded, so the next starved round is cold from the
	// start — non-convergence there is not a warm fallback.
	step(4)
	if v := fallback.Value(); v != 1 {
		t.Fatalf("fallback counter = %d after starved cold round, want still 1", v)
	}

	// Restore the budget: solves converge, warm state rebuilds, and the round
	// after that is warm-started again.
	pl.Cfg.MaxIter = 0
	step(5)
	if dec := step(6); !dec.Plan.WarmStarted {
		t.Fatal("planner did not recover to warm-started rounds after fallback")
	}
	if v := fallback.Value(); v != 1 {
		t.Fatalf("fallback counter = %d after recovery, want still 1", v)
	}
}

// runRecedingHorizon replays the deterministic trace through a fresh planner
// and returns the executed first-interval allocations, the number of
// warm-started rounds, and the planner's metrics registry. At round 10 the
// market set is swapped (different catalog, different market count), which
// must invalidate any warm state rather than feed wrong-shape seeds.
func runRecedingHorizon(t *testing.T, disableWarm bool, rounds int) ([][]float64, int, *metrics.Registry) {
	t.Helper()
	cat1 := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 72}.Generate()
	cat2 := market.CatalogConfig{Seed: 12, NumTypes: 9, Hours: 72}.Generate()
	reg := metrics.NewRegistry()
	pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5, DisableWarmStart: disableWarm},
		cat1, testPredictor(cat1), ReactiveSource{Cat: cat1})
	pl.Metrics = reg

	var firsts [][]float64
	warmRounds := 0
	for tick := 0; tick < rounds; tick++ {
		if tick == 10 {
			pl.Cat = cat2
			pl.Source = ReactiveSource{Cat: cat2}
			pl.prevAlloc = nil // market count changed; churn restarts from zero
		}
		dec, err := pl.Step(tick, sineLoad(tick))
		if err != nil {
			t.Fatalf("warm=%v round %d: %v", !disableWarm, tick, err)
		}
		firsts = append(firsts, append([]float64(nil), dec.Plan.First()...))
		if dec.Plan.WarmStarted {
			warmRounds++
		}
	}
	return firsts, warmRounds, reg
}

// Warm-vs-cold equivalence over 20 receding-horizon rounds of the FISTA
// backend (ADMM always solves cold): the executed (first-interval)
// allocations must match within solver tolerance every round, including
// across a mid-run market-set change that forces warm-state invalidation.
func TestPlannerWarmColdFirstIntervalEquivalence(t *testing.T) {
	const rounds, tol = 20, 1e-3
	t.Run("FISTA", func(t *testing.T) {
		coldF, coldWarmRounds, _ := runRecedingHorizon(t, true, rounds)
		warmF, warmRounds, reg := runRecedingHorizon(t, false, rounds)
		if coldWarmRounds != 0 {
			t.Fatalf("DisableWarmStart planner reported %d warm rounds", coldWarmRounds)
		}
		// Round 0 is necessarily cold and round 10's market swap forces a
		// cold restart; everything else should warm-start.
		if warmRounds < rounds-4 {
			t.Fatalf("only %d/%d rounds warm-started", warmRounds, rounds)
		}
		for round := range coldF {
			if len(coldF[round]) != len(warmF[round]) {
				t.Fatalf("round %d: market count diverged", round)
			}
			for i := range coldF[round] {
				if d := math.Abs(coldF[round][i] - warmF[round][i]); d > tol {
					t.Fatalf("round %d market %d: warm %v vs cold %v (diff %v > %v)",
						round, i, warmF[round][i], coldF[round][i], d, tol)
				}
			}
		}
		inval := reg.Counter("spotweb_planner_warm_invalidations_total",
			"Warm-start states dropped because the market set, horizon or anchor bound changed.")
		if inval.Value() < 1 {
			t.Fatal("market-set change did not tick the warm invalidation counter")
		}
		fb := reg.Counter("spotweb_planner_fallback_total",
			"Warm-started solves that failed to converge and were re-solved cold.")
		if fb.Value() != 0 {
			t.Fatalf("unexpected warm fallbacks: %d", fb.Value())
		}
	})
}

// A planner configured with the ADMM backend fails every round with the
// dense-risk error: planners pass the compact risk operator, and ADMM, which
// assembles its KKT blocks from a dense matrix, is only a cold probe.
func TestPlannerADMMFailsEveryRound(t *testing.T) {
	cat := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 72}.Generate()
	pl := NewPlanner(Config{Horizon: 4, Solver: SolverADMM}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
	for tick := 0; tick < 3; tick++ {
		if _, err := pl.Step(tick, sineLoad(tick)); err == nil || !strings.Contains(err.Error(), "SolverADMM needs the dense Inputs.Risk") {
			t.Fatalf("round %d: err = %v, want the dense-risk error", tick, err)
		}
	}
}

// Warm starting must actually pay: over a steady receding-horizon run the
// warm planner needs meaningfully fewer solver iterations than the cold one
// (the full-size speedup is measured in BenchmarkRecedingHorizonColdVsWarm;
// this is the always-on sanity gate at test-sized n).
func TestPlannerWarmReducesIterations(t *testing.T) {
	// 10-minute re-planning (the paper's regime): consecutive rounds differ
	// by small data deltas, which is what the warm seed exploits.
	cat := market.CatalogConfig{Seed: 21, NumTypes: 32, Hours: 48, SamplesPerHour: 6}.Generate()
	run := func(disableWarm bool) int {
		pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5, DisableWarmStart: disableWarm},
			cat, testPredictor(cat), ReactiveSource{Cat: cat})
		total := 0
		for tick := 0; tick < 24; tick++ {
			dec, err := pl.Step(tick, sineLoad(tick))
			if err != nil {
				t.Fatalf("round %d: %v", tick, err)
			}
			total += dec.Plan.Iterations
		}
		return total
	}
	cold := run(true)
	warm := run(false)
	if warm >= cold {
		t.Fatalf("warm start did not reduce iterations: warm %d vs cold %d", warm, cold)
	}
	if float64(warm) > 0.85*float64(cold) {
		t.Fatalf("warm start saved under 15%%: warm %d vs cold %d", warm, cold)
	}
}
