package portfolio

import (
	"fmt"
	"testing"

	"repro/internal/market"
	"repro/internal/solver"
)

// TestWarmSolveAllocatesOnlyThePlan: once a WarmSolver has solved a few rounds
// of a what-if sweep's problem — 6 markets, 4 periods — a warm solve allocates
// the plan's own outputs and nothing else: the Plan, its Alloc headers and the
// solution vector the allocations are windows of. The feasible set, the cost
// vector, the operator and FISTA's vectors are the previous round's, also when
// the budget band moves every round (a federation shard's) and with the
// on-demand floor on.
func TestWarmSolveAllocatesOnlyThePlan(t *testing.T) {
	const planAllocs = 3
	cat := market.CatalogConfig{Seed: 7, NumTypes: 3, IncludeOnDemand: true, Hours: 24 * 20,
		SamplesPerHour: 1, Groups: 2, BaseFailProb: 0.02}.Generate()
	n, tick := cat.Len(), 24*15
	b := InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	in, epoch := b.Build(tick, 4, sineLoad(tick))
	in.Risk, _ = cat.CovarianceOperator(tick, cat.TwoWeekWindow(), nil)
	in.OnDemand = make([]bool, n)
	for i, m := range cat.Markets {
		in.OnDemand[i] = !m.Transient
	}
	for _, c := range []struct {
		name       string
		cfg        Config
		bandStride float64 // AMin moves by this much every round
	}{
		{"sweep", Config{AMaxPerMarket: 0.4, Horizon: 4}, 0},
		{"moving-band", Config{AMaxPerMarket: 0.4, Horizon: 4}, 0.05},
		{"anchored", Config{AMaxPerMarket: 0.4, Horizon: 4, AMinOnDemand: 0.3}, 0.05},
	} {
		var ws WarmSolver
		round := 0
		solve := func() {
			cfg := c.cfg
			cfg.AMin = 1 - c.bandStride*float64(round%2)
			round++
			plan, err := ws.Solve(cfg, cat, in, epoch)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, round, err)
			}
			if plan.Status != solver.StatusSolved || (round > 1 && !plan.WarmStarted) {
				t.Fatalf("%s round %d: status %v, warm %v", c.name, round, plan.Status, plan.WarmStarted)
			}
			ws.Shift(n)
		}
		for round < 4 {
			solve()
		}
		if got := testing.AllocsPerRun(20, solve); got > planAllocs {
			t.Errorf("%s: a warm solve allocates %v objects, want at most the plan's own %d", c.name, got, planAllocs)
		}
	}
}

// TestWorkspaceMatchesFreshSolve: a WarmSolver's solves — set, cost vector,
// operator and solver vectors reused from round to round, the budget band
// moving every round, the on-demand floor on — equal in every bit and in
// every projection count the same receding-horizon trace solved through
// OptimizeWarm, which builds all of them afresh each round.
func TestWorkspaceMatchesFreshSolve(t *testing.T) {
	cat := market.CatalogConfig{Seed: 9, NumTypes: 3, IncludeOnDemand: true, Hours: 24 * 20,
		SamplesPerHour: 1, Groups: 2, BaseFailProb: 0.02}.Generate()
	n := cat.Len()
	od := make([]bool, n)
	for i, m := range cat.Markets {
		od[i] = !m.Transient
	}
	b := InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	var ws WarmSolver
	var warm *solver.WarmState
	for round := 0; round < 12; round++ {
		tick := 24*15 + round
		in, epoch := b.Build(tick, 4, sineLoad(tick))
		in.Risk, _ = cat.CovarianceOperator(tick, cat.TwoWeekWindow(), nil)
		in.OnDemand = od
		cfg := Config{AMaxPerMarket: 0.4, Horizon: 4, AMinOnDemand: 0.3, AMin: 1 - 0.05*float64(round%3)}
		got, err := ws.Solve(cfg, cat, in, epoch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := OptimizeWarm(cfg, in, warm)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("round %d", round)
		plansIdentical(t, tag, got, want)
		if got.Projection != want.Projection || got.Projection.Projections == 0 {
			t.Fatalf("%s: projection counts %+v, fresh set %+v", tag, got.Projection, want.Projection)
		}
		if want.Status != solver.StatusSolved {
			t.Fatalf("%s: status %v", tag, want.Status)
		}
		ws.Shift(n)
		warm = want.warm
		warm.ShiftHorizon(n)
	}
}
