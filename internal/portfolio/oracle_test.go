package portfolio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/solver"
)

// planDefect holds a plan to the MPO program it claims to solve, with no
// second solver in the loop — the portfolio-level twin of the solver
// package's assertOptimal (a test helper cannot cross packages). The program
// min ½xᵀPx + qᵀx over the horizon-stacked feasible set is rebuilt from
// (cfg, in) through the planner's own pieces, and the stacked allocation must
// (i) be a fixed point of the projected-gradient map, ‖x − Π(x − ∇f(x)/L)‖∞ ≤
// tol, and (ii) score within tol·(1 + |f(x)|) of every sampled feasible point:
// projections of points further along the projected-gradient arc, of x plus
// Gaussian noise at four scales, and of pure noise. It returns what it found
// wrong, or "".
func planDefect(cfg Config, in *Inputs, plan *Plan, tol float64) string {
	c := cfg.WithDefaults()
	n := len(plan.Alloc[0])
	kappa := c.churnWeight(in, n)
	op := &horizonOperator{m: in.Risk, alpha: c.Alpha, kappa: kappa, n: n, h: c.Horizon}
	q := c.buildLinear(in, n, kappa)
	var anchorIdx []int
	if c.AMinOnDemand > 0 {
		anchorIdx = in.anchorIdx()
	}
	set := c.feasibleSet(n, anchorIdx)
	x := linalg.NewVector(0)
	for _, a := range plan.Alloc {
		x = append(x, a...)
	}

	tmp := linalg.NewVector(len(x))
	f := func(v linalg.Vector) float64 {
		op.Apply(v, tmp)
		return 0.5*v.Dot(tmp) + q.Dot(v)
	}
	l := solver.EstimateLipschitz(op, 100)
	arc := func(s float64) linalg.Vector {
		op.Apply(x, tmp)
		y := x.Clone()
		for i := range y {
			y[i] -= s * (tmp[i] + q[i])
		}
		set.Project(y)
		return y
	}
	if r := arc(1 / l).Sub(x).NormInf(); !(r <= tol) {
		return fmt.Sprintf("projected-gradient fixed-point residual %g > %g", r, tol)
	}
	fx := f(x)
	floor := fx - tol*(1+math.Abs(fx))
	for _, s := range []float64{1, 10, 100, 1000} {
		if fy := f(arc(s / l)); fy < floor {
			return fmt.Sprintf("%v/L along the projected-gradient arc scores %v < %v", s, fy, fx)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(x))))
	y := linalg.NewVector(len(x))
	for k := 0; k < 100; k++ {
		scale := math.Pow(10, -float64(k%5)) // 1 … 1e-4
		for i := range y {
			y[i] = scale * rng.NormFloat64()
			if k%5 != 0 {
				y[i] += x[i]
			}
		}
		set.Project(y)
		if fy := f(y); fy < floor {
			return fmt.Sprintf("sample %d (noise %g) scores %v < %v", k, scale, fy, fx)
		}
	}
	return ""
}

func assertPlanOptimal(t *testing.T, cfg Config, in *Inputs, plan *Plan, tol float64) {
	t.Helper()
	if msg := planDefect(cfg, in, plan, tol); msg != "" {
		t.Fatalf("plan not optimal: %s", msg)
	}
}

// plansAgree fails unless the two plans reach the same objective and the same
// allocations within the ADMM backend's tolerance.
func plansAgree(t *testing.T, tag string, fista, admm *Plan) {
	t.Helper()
	if d := math.Abs(fista.Objective - admm.Objective); d > 1e-4*(1+math.Abs(fista.Objective)) {
		t.Fatalf("%s: objective FISTA %v vs ADMM %v", tag, fista.Objective, admm.Objective)
	}
	for τ := range fista.Alloc {
		for i := range fista.Alloc[τ] {
			if d := math.Abs(fista.Alloc[τ][i] - admm.Alloc[τ][i]); d > 2e-3 {
				t.Fatalf("%s: τ=%d market %d: FISTA %v vs ADMM %v", tag, τ, i, fista.Alloc[τ][i], admm.Alloc[τ][i])
			}
		}
	}
}

// The two backends over the sizes, horizons and anchor settings the planner
// meets, over a six-round receding-horizon trace in which each FISTA solve is
// seeded from the previous round's shifted state and ADMM solves cold: every
// FISTA plan is optimal by the oracle, and the structured ADMM plan agrees
// with it.
func TestADMMAndFISTAAgreeOnMPO(t *testing.T) {
	const rounds = 6
	for _, n := range []int{3, 10, 50} {
		for _, h := range []int{1, 4, 12} {
			if raceEnabled && n*h > 200 {
				continue // the instrumented 50×12 solves add ≈ 13 s
			}
			for _, anchored := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(1000*n + h)))
				in := kktInputs(rng, n, h)
				cfg := kktCfg(h)
				if anchored {
					in.OnDemand = markOnDemand(n, (n+2)/3)
					cfg.AMinOnDemand = 0.4
				}
				var warm *solver.WarmState
				for round := 0; round < rounds; round++ {
					tag := func(what string) string {
						return fmt.Sprintf("%s n=%d h=%d anchored=%v round %d", what, n, h, anchored, round)
					}
					cfg.Solver = SolverFISTA
					pf, err := OptimizeWarm(cfg, in, warm)
					if err != nil {
						t.Fatal(tag("FISTA"), err)
					}
					cfg.Solver = SolverADMM
					pa, err := Optimize(cfg, in)
					if err != nil {
						t.Fatal(tag("ADMM"), err)
					}
					if pf.Status != solver.StatusSolved || pa.Status != solver.StatusSolved {
						t.Fatalf("%s: FISTA %v, ADMM %v", tag("status"), pf.Status, pa.Status)
					}
					if pf.WarmStarted != (round > 0) || pa.WarmStarted || pa.warm != nil {
						t.Fatalf("%s: FISTA %v, ADMM %v (state %v), want FISTA %v and ADMM cold without state",
							tag("warm-started"), pf.WarmStarted, pa.WarmStarted, pa.warm != nil, round > 0)
					}
					cfg.Solver = SolverFISTA
					assertPlanOptimal(t, cfg, in, pf, 1e-6)
					plansAgree(t, tag("agreement"), pf, pa)

					// Next round: execute the first interval, shift the
					// seed one period, drift the forecasts.
					warm = pf.warm
					warm.ShiftHorizon(n)
					in.PrevAlloc = pf.First().Clone()
					for τ := range in.Lambda {
						in.Lambda[τ] *= 1 + 0.04*math.Sin(float64(round+τ))
						for i := range in.PerReqCost[τ] {
							in.PerReqCost[τ][i] *= 1 + 0.02*math.Cos(float64(round+i))
						}
					}
				}
			}
		}
	}
}

// The 288-market first interval — the catalog shape and horizon of the
// benchmark's plan_single — is optimal by the oracle, anchored or not.
func TestFirstInterval288OptimalByOracle(t *testing.T) {
	cat := twinCatalog(144)
	const tick = 24 * 15
	cfg := Config{Horizon: 6, ChurnKappa: 1}
	b := InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	in, _ := b.Build(tick, cfg.Horizon, sineLoad(tick))
	in.Risk = cat.CovarianceMatrix(tick, cat.TwoWeekWindow())
	if cat.Len() != 288 {
		t.Fatalf("catalog has %d markets, want 288", cat.Len())
	}
	for _, m := range cat.Markets {
		in.OnDemand = append(in.OnDemand, !m.Transient)
	}
	for _, floor := range []float64{0, 0.3} {
		cfg.AMinOnDemand = floor
		plan, err := Optimize(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Status != solver.StatusSolved {
			t.Fatalf("anchor floor %v: %v after %d iterations", floor, plan.Status, plan.Iterations)
		}
		assertPlanOptimal(t, cfg, in, plan, 1e-6)

		// Not vacuous: a twentieth of the way toward the uniform allocation
		// (feasible by convexity) is rejected.
		bad := *plan
		bad.Alloc = nil
		for _, a := range plan.Alloc {
			u := a.Clone().Scale(0.95)
			for i := range u {
				u[i] += 0.05 * a.Sum() / float64(len(u))
			}
			bad.Alloc = append(bad.Alloc, u)
		}
		if planDefect(cfg, in, &bad, 1e-6) == "" {
			t.Fatal("the oracle accepts a plan moved 5% toward the uniform allocation")
		}
	}
}
