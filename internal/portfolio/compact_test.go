package portfolio

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/solver"
)

// twinCatalog has one on-demand twin per transient market, so every second
// index of its covariance matrix is isolated.
func twinCatalog(types int) *market.Catalog {
	return market.CatalogConfig{Seed: 21, NumTypes: types, IncludeOnDemand: true, Hours: 24 * 20}.Generate()
}

// perPeriodRisk replaces the stacked apply of the operator it wraps with one
// MulVec per period, so the horizon operator multiplies by M one period at a
// time as it always did.
type perPeriodRisk struct{ m linalg.MatVec }

func (p perPeriodRisk) Dim() int                                  { return p.m.Dim() }
func (p perPeriodRisk) MulVec(x, dst linalg.Vector) linalg.Vector { return p.m.MulVec(x, dst) }
func (p perPeriodRisk) MulVecStacked(x, dst linalg.Vector, _ *linalg.Scratch) linalg.Vector {
	n := p.m.Dim()
	for off := 0; off < len(x); off += n {
		p.m.MulVec(x[off:off+n], dst[off:off+n])
	}
	return dst
}

// denseDoor hides the *linalg.Matrix type from solveFISTA, which then applies
// the matrix as given — Matrix.MulVecStacked — instead of through CompactRisk.
type denseDoor struct{ *linalg.Matrix }

// plansIdentical fails unless the two plans agree in every bit of every float
// and in every solver counter.
func plansIdentical(t *testing.T, tag string, a, b *Plan) {
	t.Helper()
	if a.Status != b.Status || a.Iterations != b.Iterations || a.WarmStarted != b.WarmStarted {
		t.Fatalf("%s: status/iterations/warm diverge: %v/%d/%v vs %v/%d/%v",
			tag, a.Status, a.Iterations, a.WarmStarted, b.Status, b.Iterations, b.WarmStarted)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		math.Float64bits(a.PriRes) != math.Float64bits(b.PriRes) {
		t.Fatalf("%s: objective/residual diverge: %v/%v vs %v/%v", tag, a.Objective, a.PriRes, b.Objective, b.PriRes)
	}
	if len(a.Alloc) != len(b.Alloc) {
		t.Fatalf("%s: horizon mismatch", tag)
	}
	for τ := range a.Alloc {
		for i := range a.Alloc[τ] {
			if math.Float64bits(a.Alloc[τ][i]) != math.Float64bits(b.Alloc[τ][i]) {
				t.Fatalf("%s: alloc[%d][%d] diverges: %v vs %v",
					tag, τ, i, a.Alloc[τ][i], b.Alloc[τ][i])
			}
		}
	}
}

// TestBitIdenticalCompactSolve drives the same receding-horizon trace three
// times: with the dense covariance in Inputs.Risk, where solveFISTA derives
// the compact operator and applies it to all periods in one stacked call;
// through the dense door, a wrapper that hides the matrix's type, so the very
// same matrix is applied by Matrix.MulVecStacked; and through a wrapper that
// applies it with one MulVec call per period. Every round — the cold first
// one and the warm ones after it — must agree in every bit.
func TestBitIdenticalCompactSolve(t *testing.T) {
	cat := twinCatalog(9)
	n := cat.Len()
	cfg := Config{Horizon: 4, ChurnKappa: 1}
	type track struct {
		b    InputBuilder
		ws   WarmSolver
		prev linalg.Vector
	}
	const (
		compactLeg = iota
		denseDoorLeg
		perPeriodLeg
	)
	step := func(tr *track, tick, leg int) *Plan {
		in, epoch := tr.b.Build(tick, cfg.Horizon, sineLoad(tick))
		m := cat.CovarianceMatrix(tick, cat.TwoWeekWindow())
		switch leg {
		case compactLeg:
			in.Risk = m
		case denseDoorLeg:
			in.Risk = denseDoor{m}
		case perPeriodLeg:
			in.Risk = perPeriodRisk{m}
		}
		in.PrevAlloc = tr.prev
		plan, err := tr.ws.Solve(cfg, cat, in, epoch)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		tr.ws.Shift(n)
		tr.prev = plan.First().Clone()
		return plan
	}
	var compact, dense, perPeriod track
	for _, tr := range []*track{&compact, &dense, &perPeriod} {
		tr.b = InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	}
	warm := 0
	for round := 0; round < 10; round++ {
		tick := 24*15 + round
		pc, pd := step(&compact, tick, compactLeg), step(&dense, tick, denseDoorLeg)
		plansIdentical(t, "round", pc, pd)
		plansIdentical(t, "round (one period at a time)", pc, step(&perPeriod, tick, perPeriodLeg))
		if pc.RiskCoupled != n/2 || pd.RiskCoupled != n {
			t.Fatalf("round %d: RiskCoupled = %d (compact) / %d (dense door), want %d / %d",
				round, pc.RiskCoupled, pd.RiskCoupled, n/2, n)
		}
		if round == 0 && pc.WarmStarted {
			t.Fatal("first round must be cold")
		}
		if pc.WarmStarted {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no warm round in the trace")
	}
}

// TestCompactSolveNothingIsolated: an all-transient catalog reports every
// market coupled (the solve then runs on the matrix itself).
func TestCompactSolveNothingIsolated(t *testing.T) {
	cat := market.CatalogConfig{Seed: 21, NumTypes: 7, Hours: 24 * 20}.Generate()
	b := InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	in, _ := b.Build(24*15, 3, sineLoad(0))
	in.Risk = cat.CovarianceMatrix(24*15, cat.TwoWeekWindow())
	for _, kind := range []SolverKind{SolverFISTA, SolverADMM} {
		plan, err := Optimize(Config{Horizon: 3, Solver: kind}, in)
		if err != nil {
			t.Fatal(err)
		}
		if plan.RiskCoupled != cat.Len() {
			t.Fatalf("solver %v: RiskCoupled = %d, want %d", kind, plan.RiskCoupled, cat.Len())
		}
	}
}

// TestPlannerRiskCoupledGauge: whether the compact matvec and the projection's
// certificate engaged on the last round is readable from /metrics, and a nil
// registry stays free.
func TestPlannerRiskCoupledGauge(t *testing.T) {
	cat := twinCatalog(5)
	pl := NewPlanner(Config{Horizon: 3}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
	if _, err := pl.Step(24*15, sineLoad(0)); err != nil { // nil registry
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	pl.Metrics = reg
	dec, err := pl.Step(24*15+1, sineLoad(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("spotweb_planner_risk_coupled_markets", "").Value(); got != 5 || dec.Plan.RiskCoupled != 5 {
		t.Fatalf("risk_coupled_markets gauge = %v, Plan.RiskCoupled = %d, want 5 of %d markets", got, dec.Plan.RiskCoupled, cat.Len())
	}
	// Likewise for the projection: its bisections read most answers off the
	// certificate.
	st := dec.Plan.Projection
	if got := reg.Gauge("spotweb_planner_projection_passes", "").Value(); got != st.PassesPerProjection() || st.Projections == 0 || got >= 15 {
		t.Fatalf("projection_passes gauge = %v, Plan.Projection = %+v (%v passes per projection); want the same, under 15",
			got, st, st.PassesPerProjection())
	}
}

// TestCompactSolveSteadyStateZeroAlloc: with the compact stacked operator and
// the certified-bracket projections in place a FISTA iteration still
// allocates nothing — 500 extra iterations cost no object (solver.TestKKTFISTASteadyStateZeroAlloc is the solver-level twin).
func TestCompactSolveSteadyStateZeroAlloc(t *testing.T) {
	cat := twinCatalog(30)
	b := InputBuilder{Workload: testPredictor(cat), Source: ReactiveSource{Cat: cat}}
	in, _ := b.Build(24*15, 4, sineLoad(0))
	in.Risk = cat.CovarianceMatrix(24*15, cat.TwoWeekWindow())
	// With risk weighted this heavily the solve needs ≈ 1,700 iterations, so
	// both budgets below run their full iteration count, and its projections
	// bisect from the first iterations on.
	cfg := Config{Horizon: 4, Alpha: 1e5}
	measure := func(iters int) float64 {
		cfg.MaxIter = iters
		plan, err := Optimize(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Iterations != iters || plan.Status != solver.StatusMaxIterations || plan.RiskCoupled != cat.Len()/2 ||
			plan.Projection.Projections < iters || plan.Projection.PassesPerProjection() >= 15 {
			t.Fatalf("MaxIter %d: ran %d iterations (%v) over %d coupled markets with %+v (%.1f real passes per bisected projection); the test needs a full-length compact solve whose projections bisect at under 15",
				iters, plan.Iterations, plan.Status, plan.RiskCoupled, plan.Projection, plan.Projection.PassesPerProjection())
		}
		return testing.AllocsPerRun(3, func() { Optimize(cfg, in) })
	}
	if d := measure(600) - measure(100); d != 0 {
		t.Errorf("Optimize allocates %.1f objects over 500 extra iterations, want 0", d)
	}
}
