package federation

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/portfolio"
	"repro/internal/predict"
)

// TestShardOperatorOracle holds the federated Step to the shard path from
// before the operators, run through the denseRisk seam: each shard's dense
// CovarianceMatrix as Inputs.Risk, its windows gathered one at a time into a
// fresh buffer, scanned by the solve and multiplied densely by marginalCost.
// The planners under test build each shard's operator with the eight-wide
// gather into the window buffers their running tasks share, at pool widths 1,
// 2 and 4, on federations with and without on-demand twins whose shards hold
// k < 8, k = 8 and k = 13 transient markets. Over 40 steps every merged
// allocation must carry the oracle's bits, and the counts, iterations,
// coupled-market count and budget shares must equal its.
func TestShardOperatorOracle(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4) // before the shared pool is first sized
		defer runtime.GOMAXPROCS(old)
	}
	cfg := fedTestConfig()
	for _, twins := range []bool{false, true} {
		for _, types := range []int{5, 8, 13} {
			fed, err := Build(Config{Regions: 2, AZsPerRegion: 2, TypesPerAZ: types,
				Hours: 24 * 4, IncludeOnDemand: twins, Seed: 35})
			if err != nil {
				t.Fatal(err)
			}
			newPlanner := func(width int) *Planner {
				wp := predict.NewSplinePredictor(predict.SplineConfig{
					StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
				}, cfg.Horizon)
				return NewPlanner(fed, PlannerConfig{Portfolio: cfg, CovWindow: 40, Parallelism: width},
					wp, portfolio.MeanRevertSource{Cat: fed.Merged})
			}
			oracle := newPlanner(1)
			oracle.denseRisk = true
			widths := []int{1, 2, 4}
			planners := make([]*Planner, len(widths))
			for k, w := range widths {
				planners[k] = newPlanner(w)
			}
			for step := 40; step < 80; step++ {
				lambda := 60 + 25*math.Sin(float64(step)/5)
				want, err := oracle.Step(step, lambda)
				if err != nil {
					t.Fatalf("twins=%v k=%d oracle step %d: %v", twins, types, step, err)
				}
				wantShares := oracle.LastStats().Shares
				for k, p := range planners {
					tag := func() string {
						return fmt.Sprintf("twins=%v k=%d width=%d step=%d", twins, types, widths[k], step)
					}
					got, err := p.Step(step, lambda)
					if err != nil {
						t.Fatalf("%s: %v", tag(), err)
					}
					for τ := range want.Plan.Alloc {
						for i, a := range want.Plan.Alloc[τ] {
							if b := got.Plan.Alloc[τ][i]; math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("%s τ=%d market %d: alloc %v, oracle %v", tag(), τ, i, b, a)
							}
						}
					}
					for i := range want.Counts {
						if got.Counts[i] != want.Counts[i] {
							t.Fatalf("%s market %d: %d servers, oracle %d", tag(), i, got.Counts[i], want.Counts[i])
						}
					}
					if got.Plan.Iterations != want.Plan.Iterations || got.Plan.RiskCoupled != want.Plan.RiskCoupled {
						t.Fatalf("%s: iterations/coupled %d/%d, oracle %d/%d", tag(),
							got.Plan.Iterations, got.Plan.RiskCoupled, want.Plan.Iterations, want.Plan.RiskCoupled)
					}
					for s, sh := range p.LastStats().Shares {
						if math.Float64bits(sh) != math.Float64bits(wantShares[s]) {
							t.Fatalf("%s shard %d: share %v, oracle %v", tag(), s, sh, wantShares[s])
						}
					}
				}
				if coupled := want.Plan.RiskCoupled; coupled <= 0 || coupled > len(fed.Shards)*types {
					t.Fatalf("twins=%v k=%d step %d: RiskCoupled %d, want 1..%d", twins, types, step, coupled, len(fed.Shards)*types)
				}
			}
		}
	}
}
