package portfolio

import (
	"math"
	"testing"

	"repro/internal/market"
)

// benchColdVsWarm replays a deterministic receding-horizon trace through a
// fresh planner per b.N iteration and reports mean solver iterations per
// round over the steady-state tail (after the predictor and the warm-start
// chain have settled), so the nightly artifact records the warm-start
// speedup (the ISSUE's ≥2× acceptance gate at admm-n200).
func benchColdVsWarm(b *testing.B, kind SolverKind, n, rounds, tail int, disableWarm bool) {
	// 10-minute re-planning against a diurnal workload — the paper's §6
	// regime: 144 ticks per day, so consecutive rounds differ by the small
	// data deltas the warm seed exploits.
	cat := market.CatalogConfig{Seed: 11, NumTypes: n, Hours: 96, SamplesPerHour: 6}.Generate()
	diurnal := func(t int) float64 {
		return 400 + 150*math.Sin(float64(t)*2*math.Pi/144)
	}
	b.ResetTimer()
	totalIters := 0
	for i := 0; i < b.N; i++ {
		pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5, Solver: kind, DisableWarmStart: disableWarm},
			cat, testPredictor(cat), ReactiveSource{Cat: cat})
		for tick := 0; tick < rounds; tick++ {
			dec, err := pl.Step(tick, diurnal(tick))
			if err != nil {
				b.Fatal(err)
			}
			if tick >= rounds-tail {
				totalIters += dec.Plan.Iterations
			}
		}
	}
	b.ReportMetric(float64(totalIters)/float64(tail*b.N), "iters/round")
}

func BenchmarkRecedingHorizonColdVsWarm(b *testing.B) {
	cases := []struct {
		name string
		kind SolverKind
		n    int
	}{
		// Market counts mirror the PR 1 solver benches (50/200/500).
		{"fista-n50", SolverFISTA, 50},
		{"fista-n200", SolverFISTA, 200},
		{"fista-n500", SolverFISTA, 500},
		{"admm-n50", SolverADMM, 50},
		{"admm-n200", SolverADMM, 200},
	}
	const rounds, tail = 24, 12
	for _, c := range cases {
		b.Run(c.name+"/cold", func(b *testing.B) { benchColdVsWarm(b, c.kind, c.n, rounds, tail, true) })
		b.Run(c.name+"/warm", func(b *testing.B) { benchColdVsWarm(b, c.kind, c.n, rounds, tail, false) })
	}
}
