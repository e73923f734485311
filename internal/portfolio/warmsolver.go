package portfolio

import (
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/solver"
)

// WarmSolver runs MPO solves through the receding-horizon warm-start
// lifecycle. It is the state machine behind Planner.solve, extracted so the
// federation's per-shard planners get identical semantics:
//
//   - The previous accepted solve's solver state seeds the next solve
//     (unless cfg.DisableWarmStart).
//   - The state is invalidated whenever the market set, the horizon or the
//     anchor floor changed since it was captured: stale iterates of the
//     wrong shape must never leak into a solve. The risk overlay, drift
//     and changepoint epochs alike, never invalidates it: it moves only
//     the linear term, on which neither P nor the Lipschitz cache depends.
//   - A solve that does not converge within the iteration budget is not
//     trusted when it was warm-started: the stale state is discarded, a
//     spotweb_planner_fallback_total counter ticks, and the round is
//     re-solved cold. The cold result is used either way (its iterate is the
//     best available even at max-iterations).
//
// Warm state is only ever captured from converged solves, so one bad round
// cannot poison the next. Captured state is NOT shifted by Solve: callers
// that executed the first interval call Shift(n) once per planning round.
// (The federation's coordinator re-solves a shard several times within one
// round — against the same time window — and shifts only after the round's
// final solve is accepted.)
type WarmSolver struct {
	// Metrics, when set, records invalidations and cold fallbacks under the
	// same names the Planner always used. Nil disables instrumentation.
	Metrics *metrics.Registry

	ws         workspace
	warm       *solver.WarmState
	warmN      int
	warmH      int
	warmCat    *market.Catalog
	warmAnchor float64
	shifted    bool
}

// Solve runs one solve against in, warm-started from the previously captured
// state when it is still valid for (cat, cfg). The last parameter is ignored:
// it is the overlay epoch InputBuilder.Build returns, kept only because
// bench/plan.go's composed round passes it. It goes with ROADMAP item 18(a),
// together with market.Overlay.Epoch unless item 25(b) needs a per-market
// epoch (25(e)).
func (w *WarmSolver) Solve(cfg Config, cat *market.Catalog, in *Inputs, _ uint64) (*Plan, error) {
	n, h := cat.Len(), cfg.WithDefaults().Horizon
	if cfg.DisableWarmStart {
		w.warm = nil
		return Optimize(cfg, in)
	}
	if w.warm != nil && (w.warmN != n || w.warmH != h || w.warmCat != cat ||
		w.warmAnchor != cfg.AMinOnDemand) {
		w.warm = nil
		w.Metrics.Counter("spotweb_planner_warm_invalidations_total",
			"Warm-start states dropped because the market set, horizon or anchor bound changed.").Inc()
	}
	warmUsed := w.warm != nil
	plan, err := optimize(cfg, in, w.warm, &w.ws)
	w.warm = nil // consumed (or about to be replaced)
	if err != nil {
		return nil, err
	}
	if plan.Status != solver.StatusSolved && warmUsed {
		w.Metrics.Counter("spotweb_planner_fallback_total",
			"Warm-started solves that failed to converge and were re-solved cold.").Inc()
		cold, cerr := Optimize(cfg, in)
		if cerr != nil {
			return nil, cerr
		}
		plan = cold
	}
	if plan.Status == solver.StatusSolved && plan.warm != nil {
		w.warm = plan.warm
		w.warmN, w.warmH, w.warmCat = n, h, cat
		w.warmAnchor = cfg.AMinOnDemand
		w.shifted = false
	}
	return plan, nil
}

// Shift advances the captured warm state one period (terminal period
// duplicated) after the caller executed the plan's first interval. It is
// idempotent per capture and a no-op when no state is held, so a round that
// fell back cold without recapturing state shifts nothing.
func (w *WarmSolver) Shift(n int) {
	if w.warm == nil || w.shifted {
		return
	}
	w.warm.ShiftHorizon(n)
	w.shifted = true
}
