package portfolio

import (
	"math"
	"runtime"
	"time"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/predict"
)

// ForecastSource supplies per-market price and failure-probability forecasts
// over the horizon. Implementations: OracleSource (true future values, used
// where the paper assumes perfect knowledge), ReactiveSource (future =
// present, the paper's default for failure probabilities).
type ForecastSource interface {
	// PerReqCosts returns [τ][i] per-request costs for τ = t+1..t+h.
	PerReqCosts(t, h int) [][]float64
	// FailProbs returns [τ][i] revocation probabilities for τ = t+1..t+h.
	FailProbs(t, h int) [][]float64
}

// OracleSource reads true future values from the catalog. Near the end of
// the trace, horizon steps that would index past the final interval hold the
// final interval's values instead — an explicit clamp, so forecasts stay
// well-defined for every t the simulator can reach (previously the clamp
// happened silently inside the per-market series lookup).
type OracleSource struct{ Cat *market.Catalog }

// clampTail clamps a horizon index to the catalog's final interval.
func (o OracleSource) clampTail(idx int) int {
	if last := o.Cat.Intervals - 1; idx > last {
		return last
	}
	return idx
}

// PerReqCosts implements ForecastSource.
func (o OracleSource) PerReqCosts(t, h int) [][]float64 {
	out := make([][]float64, h)
	for k := 0; k < h; k++ {
		out[k] = o.Cat.PerRequestCosts(o.clampTail(t + 1 + k))
	}
	return out
}

// FailProbs implements ForecastSource.
func (o OracleSource) FailProbs(t, h int) [][]float64 {
	out := make([][]float64, h)
	for k := 0; k < h; k++ {
		out[k] = o.Cat.FailProbs(o.clampTail(t + 1 + k))
	}
	return out
}

// ReactiveSource assumes every future interval looks like the present — the
// information set available to a backward-looking policy such as ExoSphere.
type ReactiveSource struct{ Cat *market.Catalog }

// PerReqCosts implements ForecastSource. Every period gets its own copy of
// the current cost vector: the h rows must not alias one backing slice, or
// any downstream per-period row mutation (catalog pre-transforms, per-period
// scaling) would silently corrupt every other period.
func (r ReactiveSource) PerReqCosts(t, h int) [][]float64 {
	return replicateRows(r.Cat.PerRequestCosts(t), h)
}

// FailProbs implements ForecastSource.
func (r ReactiveSource) FailProbs(t, h int) [][]float64 {
	return replicateRows(r.Cat.FailProbs(t), h)
}

// replicateRows returns h independent copies of row — one freshly backed
// slice per horizon period.
func replicateRows(row []float64, h int) [][]float64 {
	out := make([][]float64, h)
	for k := range out {
		cp := make([]float64, len(row))
		copy(cp, row)
		out[k] = cp
	}
	return out
}

// NoisySource wraps a ForecastSource with deterministic multiplicative noise
// on the price forecasts — the Fig. 7(a) accuracy knob applied to prices.
type NoisySource struct {
	Base     ForecastSource
	RelError float64
	Seed     uint64
}

// PerReqCosts implements ForecastSource.
func (n NoisySource) PerReqCosts(t, h int) [][]float64 {
	out := n.Base.PerReqCosts(t, h)
	for k := range out {
		row := append([]float64(nil), out[k]...)
		for i := range row {
			s := uint64(t)*2654435761 + uint64(k)*97 + uint64(i)*7919 + n.Seed + 1
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			u1 := float64(s%100000)/100000.0 + 1e-9
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			u2 := float64(s%100000) / 100000.0
			g := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			row[i] *= 1 + n.RelError*g
			if row[i] < 0 {
				row[i] = 0
			}
		}
		out[k] = row
	}
	return out
}

// FailProbs implements ForecastSource.
func (n NoisySource) FailProbs(t, h int) [][]float64 { return n.Base.FailProbs(t, h) }

// OverlayProvider supplies the latest risk overlay — estimator-corrected
// failure probabilities the planner applies on top of its forecast source.
// Implemented by *risk.Estimator; a nil provider (or a provider returning a
// nil overlay) leaves the declared forecasts untouched.
type OverlayProvider interface {
	Overlay() *market.Overlay
}

// Planner is the receding-horizon controller: each interval it observes the
// actual workload, refreshes forecasts, solves the MPO program and returns
// the first-interval allocation and server counts.
type Planner struct {
	Cfg      Config
	Cat      *market.Catalog
	Workload predict.Predictor
	Source   ForecastSource
	// RiskOverlay, when set, is consulted before every solve: overlay
	// overrides replace the forecast failure probabilities across the whole
	// horizon (the estimator's view is a per-interval rate, so the reactive
	// "future = corrected present" assumption applies). Nil = declared
	// probabilities only.
	RiskOverlay OverlayProvider
	// CovWindow is the trailing window (in intervals) for the covariance
	// matrix M; ≤ 0 means 14 days (Catalog.TwoWeekWindow).
	CovWindow int
	// MinServerFraction drops allocations smaller than this fraction of one
	// server (default 0.05).
	MinServerFraction float64
	// Metrics, when set, records per-Step solver health (iterations,
	// residual, wall time, status), plan churn and the expected spend rate.
	// Nil disables instrumentation for free.
	Metrics *metrics.Registry

	prevAlloc linalg.Vector

	// builder assembles per-round Inputs (forecast scoring, MAE window,
	// workload prediction, overlay application); ws manages the warm-start
	// lifecycle across rounds. Both are synced from the Planner's public
	// fields at the top of every Step, so callers that mutate Workload,
	// Source, RiskOverlay or Metrics after construction keep working.
	builder InputBuilder
	ws      WarmSolver

	// next is the risk operator of the round after the last one, being built
	// beside that round's solve (nil when none was started); prefetchCat and
	// prefetchOK cache whether the catalog is large enough for that to pay.
	next        *riskPrefetch
	prefetchCat *market.Catalog
	prefetchOK  bool
}

// prefetchMinTransient is the transient-market count from which a round
// builds the next round's risk operator on a second core: one 8-wide lane
// chunk, the size from which linalg.Samples lays the covariance out for the
// lane kernel. Smaller catalogs build it inline, where a goroutine hand-off
// would cost more than the build.
const prefetchMinTransient = 8

// riskPrefetch is the FISTA risk operator of round t over window, for cat,
// built on its own goroutine; done closes once op is set. The goroutine runs
// one bounded build and exits: the round it was started for waits on done,
// and nothing waits for one whose round never comes.
type riskPrefetch struct {
	t, window int
	cat       *market.Catalog
	done      chan struct{}
	op        linalg.MatVec
}

// NewPlanner wires a planner with defaults.
func NewPlanner(cfg Config, cat *market.Catalog, workload predict.Predictor, src ForecastSource) *Planner {
	c := cfg.WithDefaults()
	return &Planner{
		Cfg: c, Cat: cat, Workload: workload, Source: src,
		CovWindow: cat.TwoWeekWindow(), MinServerFraction: 0.05,
	}
}

// Decision is the per-interval output of the planner.
type Decision struct {
	Plan *Plan
	// Counts[i] is the integer server count requested in market i.
	Counts []int
	// PredictedLambda is the (padded) first-interval workload forecast the
	// counts were sized for.
	PredictedLambda float64
	// Capacity is the total req/s the counts provide.
	Capacity float64
}

// Step observes the actual workload of interval t and plans interval t+1.
func (p *Planner) Step(t int, actualLambda float64) (*Decision, error) {
	p.builder.Workload, p.builder.Source = p.Workload, p.Source
	p.builder.RiskOverlay, p.builder.Metrics = p.RiskOverlay, p.Metrics
	p.ws.Metrics = p.Metrics

	window := p.CovWindow
	if window <= 0 {
		window = p.Cat.TwoWeekWindow()
	}
	in, _ := p.builder.Build(t, p.Cfg.Horizon, actualLambda)
	in.Risk = p.riskOperator(t, window)
	in.PrevAlloc = p.prevAlloc
	if p.Cfg.AMinOnDemand > 0 {
		od := make([]bool, p.Cat.Len())
		for i, m := range p.Cat.Markets {
			od[i] = !m.Transient
		}
		in.OnDemand = od
	}

	plan, err := p.ws.Solve(p.Cfg, p.Cat, in, 0)
	if err == nil {
		err = CheckFinite(plan.First())
	}
	if err != nil {
		p.Metrics.Counter("spotweb_solver_errors_total", "MPO solves that failed.").Inc()
		return nil, err
	}
	p.ws.Shift(p.Cat.Len())
	p.recordMetrics(t, plan, in)
	p.prevAlloc = plan.First().Clone()

	caps := make([]float64, p.Cat.Len())
	for i, m := range p.Cat.Markets {
		caps[i] = m.Type.Capacity
	}
	counts := ServerCounts(plan.First(), in.Lambda[0], caps, p.MinServerFraction)
	return &Decision{
		Plan:            plan,
		Counts:          counts,
		PredictedLambda: in.Lambda[0],
		Capacity:        CapacityOf(counts, caps),
	}, nil
}

// riskOperator returns round t's FISTA risk operator: the one the previous
// round started building when it is for this t, window and catalog, one built
// inline otherwise. When the catalog has a lane chunk of transient markets and
// a second core is there, it then starts round t+1's, to run beside this
// round's solve: the covariance over [t+1−window, t+1) reads only the
// catalog's series, which never change once the catalog is built. The solve
// itself stays serial.
func (p *Planner) riskOperator(t, window int) linalg.MatVec {
	pre, m := p.next, p.Metrics
	p.next = nil
	engaged := p.prefetches()
	var op linalg.MatVec
	if pre != nil && pre.t == t && pre.window == window && pre.cat == p.Cat {
		waitStart := time.Now()
		<-pre.done
		op = pre.op
		if m != nil {
			m.Histogram("spotweb_planner_risk_prefetch_wait_seconds",
				"Wall time a planning step waited for the risk operator the previous step started building.").
				Observe(time.Since(waitStart).Seconds())
			m.Counter("spotweb_planner_risk_prefetch_total", prefetchHelp, metrics.L("result", "hit")).Inc()
		}
	} else {
		op = covarianceOperator(m, p.Cat, t, window)
		if engaged && m != nil {
			m.Counter("spotweb_planner_risk_prefetch_total", prefetchHelp, metrics.L("result", "miss")).Inc()
		}
	}
	if engaged {
		next := &riskPrefetch{t: t + 1, window: window, cat: p.Cat, done: make(chan struct{})}
		go func() {
			next.op = covarianceOperator(m, next.cat, next.t, next.window)
			close(next.done)
		}()
		p.next = next
	}
	return op
}

const prefetchHelp = "Planning steps whose risk operator the previous step had built (hit) or that built it inline although prefetching was on (miss)."

// prefetches reports whether rounds build the next round's risk operator
// ahead: the catalog's transient count, cached per catalog, is checked first,
// so a small catalog never asks the scheduler for GOMAXPROCS.
func (p *Planner) prefetches() bool {
	if p.prefetchCat != p.Cat {
		transient := 0
		for _, mk := range p.Cat.Markets {
			if mk.Transient {
				transient++
			}
		}
		p.prefetchCat, p.prefetchOK = p.Cat, transient >= prefetchMinTransient
	}
	return p.prefetchOK && runtime.GOMAXPROCS(0) >= 2
}

// covarianceOperator builds cat's FISTA risk operator for round t and times
// the build, on whichever goroutine runs it.
func covarianceOperator(m *metrics.Registry, cat *market.Catalog, t, window int) linalg.MatVec {
	start := time.Now()
	op, _ := cat.CovarianceOperator(t, window, nil)
	m.Histogram("spotweb_planner_covariance_seconds", "Risk covariance estimation wall time per planning step.").
		Observe(time.Since(start).Seconds())
	return op
}

// recordMetrics publishes one solve's health and the executed portfolio's
// economics. Every call is a no-op when p.Metrics is nil — the handles it
// asks for come back nil and their methods return immediately.
func (p *Planner) recordMetrics(t int, plan *Plan, in *Inputs) {
	m := p.Metrics
	if m == nil {
		return
	}
	m.Counter("spotweb_solver_solves_total", "MPO solves performed.").Inc()
	m.Counter("spotweb_solver_iterations_total", "Cumulative solver iterations across all solves.").
		Add(int64(plan.Iterations))
	m.Counter("spotweb_solver_status_total", "Solves by termination status.",
		metrics.L("status", plan.Status.String())).Inc()
	m.Histogram("spotweb_solver_solve_seconds", "Optimizer wall time per solve (the Fig. 7(b) metric).").
		Observe(plan.SolveTime.Seconds())
	// Warm-vs-cold split: the per-mode iteration and wall-time distributions
	// are the receding-horizon speedup, readable directly off /metrics.
	mode := "cold"
	if plan.WarmStarted {
		mode = "warm"
	}
	m.Counter("spotweb_solver_mode_total", "Solves by start mode (warm = seeded from the previous round).",
		metrics.L("mode", mode)).Inc()
	m.Histogram("spotweb_solver_mode_iterations", "Solver iterations per solve, by start mode.",
		metrics.L("mode", mode)).Observe(float64(plan.Iterations))
	m.Histogram("spotweb_solver_mode_solve_seconds", "Optimizer wall time per solve, by start mode.",
		metrics.L("mode", mode)).Observe(plan.SolveTime.Seconds())
	m.Gauge("spotweb_solver_residual", "Final primal residual (inf-norm) of the last solve.").
		Set(plan.PriRes)
	m.Gauge("spotweb_planner_risk_coupled_markets",
		"Markets the last solve's risk matvec multiplied (fewer than the catalog when isolated on-demand markets were skipped).").
		Set(float64(plan.RiskCoupled))
	m.Gauge("spotweb_planner_projection_passes",
		"Real O(n) passes per bisected projection in the last solve (≈ 6: the bisection's certificate answered its queries; ≈ 50: every query was evaluated; 0: nothing bisected, or ADMM).").
		Set(plan.Projection.PassesPerProjection())
	m.Gauge("spotweb_plan_interval", "Planning interval index of the last solve.").Set(float64(t))

	// Plan churn: L1 distance between consecutive executed allocations —
	// the quantity the ChurnKappa regularizer penalizes.
	first := plan.First()
	var churn float64
	if p.prevAlloc != nil {
		for i := range first {
			churn += math.Abs(first[i] - p.prevAlloc[i])
		}
	}
	m.Gauge("spotweb_plan_churn", "L1 distance between consecutive executed allocations.").Set(churn)

	// Expected spend rate of the executed interval: λ · Σ_i A_i · c_i
	// ($/s), the per-interval cost the Fig. 5/6 savings claims integrate.
	var spend float64
	if len(in.PerReqCost) > 0 && len(in.Lambda) > 0 {
		for i := range first {
			spend += first[i] * in.PerReqCost[0][i]
		}
		spend *= in.Lambda[0]
	}
	m.Gauge("spotweb_plan_spend_dollars_per_sec", "Expected spend rate of the executed allocation.").Set(spend)
}
