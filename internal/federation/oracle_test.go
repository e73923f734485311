package federation

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/portfolio"
	"repro/internal/predict"
)

// TestShardOperatorOracle holds every shard's risk operator — built with the
// eight-wide gather into the window buffers the running tasks share — to
// linalg.CompactRisk of the shard's dense CovarianceMatrix, by
// reflect.DeepEqual and bit for bit through MulVec, at pool widths 1, 2 and
// 4, on federations with and without on-demand twins whose shards hold k < 8,
// k = 8 and k = 13 transient markets. Over 40 steps the widths must then plan
// the same merged allocations, bit for bit, with the same counts, iterations,
// coupled-market count and budget shares.
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
			widths := []int{1, 2, 4}
			planners := make([]*Planner, len(widths))
			for k, w := range widths {
				wp := predict.NewSplinePredictor(predict.SplineConfig{
					StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
				}, cfg.Horizon)
				planners[k] = NewPlanner(fed, PlannerConfig{Portfolio: cfg, CovWindow: 40, Parallelism: w},
					wp, portfolio.MeanRevertSource{Cat: fed.Merged})
			}
			for step := 40; step < 80; step++ {
				lambda := 60 + 25*math.Sin(float64(step)/5)
				var want *portfolio.Decision
				var wantShares []float64
				for k, p := range planners {
					tag := func() string {
						return fmt.Sprintf("twins=%v k=%d width=%d step=%d", twins, types, widths[k], step)
					}
					for s, op := range p.shardCovariances(step, func() {}) {
						sh := fed.Shards[s]
						ref, _ := linalg.CompactRisk(sh.Cat.CovarianceMatrix(step, 40))
						if !reflect.DeepEqual(op, ref) {
							t.Fatalf("%s shard %d: operator %T differs from CompactRisk(CovarianceMatrix)'s %T", tag(), s, op, ref)
						}
						x := linalg.NewVector(sh.Cat.Len())
						for i := range x {
							x[i] = float64(i%5) - 1.75
						}
						got, exp := op.MulVec(x, linalg.NewVector(len(x))), ref.MulVec(x, linalg.NewVector(len(x)))
						for i := range exp {
							if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
								t.Fatalf("%s shard %d output %d: %v, CompactRisk(CovarianceMatrix) %v", tag(), s, i, got[i], exp[i])
							}
						}
					}
					got, err := p.Step(step, lambda)
					if err != nil {
						t.Fatalf("%s: %v", tag(), err)
					}
					if want == nil {
						want, wantShares = got, p.LastStats().Shares
						continue
					}
					for τ := range want.Plan.Alloc {
						for i, a := range want.Plan.Alloc[τ] {
							if b := got.Plan.Alloc[τ][i]; math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("%s τ=%d market %d: alloc %v, width 1 %v", tag(), τ, i, b, a)
							}
						}
					}
					for i := range want.Counts {
						if got.Counts[i] != want.Counts[i] {
							t.Fatalf("%s market %d: %d servers, width 1 %d", tag(), i, got.Counts[i], want.Counts[i])
						}
					}
					if got.Plan.Iterations != want.Plan.Iterations || got.Plan.RiskCoupled != want.Plan.RiskCoupled {
						t.Fatalf("%s: iterations/coupled %d/%d, width 1 %d/%d", tag(),
							got.Plan.Iterations, got.Plan.RiskCoupled, want.Plan.Iterations, want.Plan.RiskCoupled)
					}
					for s, sh := range p.LastStats().Shares {
						if math.Float64bits(sh) != math.Float64bits(wantShares[s]) {
							t.Fatalf("%s shard %d: share %v, width 1 %v", tag(), s, sh, wantShares[s])
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
