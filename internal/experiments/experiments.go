// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): each Fig*/Table* function runs the corresponding
// experiment against this repo's implementations and prints the same rows or
// series the paper reports, returning a structured result for tests and
// benchmarks. The Quick option shrinks durations for CI-sized runs without
// changing the experiment's structure.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/autoscale"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/risk"
	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options controls experiment size and output. It is the shared
// runcfg.RunConfig — the same struct the daemons, the chaos runner and the
// sweep engine consume — so one definition covers every way of driving a
// run; see that package for the field documentation.
type Options = runcfg.RunConfig

// mustRun simulates pol over (cat, wl). base carries the experiment's own
// simulator settings (start-up model, lifetime cap); the seed and the run's
// simulator overrides are laid over it, and est, when non-nil, is fed the
// leg's ground truth.
func mustRun(opt Options, base sim.Config, cat *market.Catalog, wl *trace.Series, pol sim.Policy, est *risk.Estimator) *sim.Result {
	base.Seed, base.TransiencyAware = opt.RunSeed(), true
	s := &sim.Simulator{Cfg: opt.Sim(base, est), Cat: cat, Workload: wl, Policy: pol}
	res, err := s.Run()
	if err != nil {
		panic(err)
	}
	return res
}

// runSpotWeb simulates the SpotWeb planner — the one place an experiment's
// run options reach a planner leg: the anchor floor, warm starting and the
// worker bound go into cfg, and under -risk a fresh estimator sits between
// the simulator (ground truth in) and the planner (overlay out). Baseline
// policies go through mustRun untouched.
func runSpotWeb(opt Options, base sim.Config, cfg portfolio.Config, cat *market.Catalog, wl *trace.Series,
	wlPred predict.Predictor, src portfolio.ForecastSource) *sim.Result {
	est := opt.Estimator(cat)
	p := portfolio.NewPlanner(opt.Planner(cfg, cat), cat, wlPred, src)
	if est != nil {
		p.RiskOverlay = est
	}
	return mustRun(opt, base, cat, wl, autoscale.Planner{Stepper: p, Label: "spotweb"}, est)
}

// CostWithPenalty is the evaluation's cost metric: rental cost plus the SLO
// penalty for dropped requests, realized a posteriori. penaltyP is in the
// paper's unit — $/hr per unit of req/s, the same unit as the per-request
// cost C = price/r (P = 0.02 is "double the maximum cost to serve a
// request", which is 0.01 on x1e.16xlarge) — so a dropped request costs
// penaltyP/3600 dollars.
func CostWithPenalty(r *sim.Result, penaltyP float64) float64 {
	return r.TotalCost + penaltyP*r.Dropped/3600
}

// Savings returns the fractional cost reduction of `ours` vs `baseline`.
func Savings(ours, baseline float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return 1 - ours/baseline
}

// Table1 prints the qualitative comparison matrix of Table 1.
func Table1(w io.Writer) {
	rows := []struct {
		feature string
		vals    [4]string
	}{
		{"Heterogeneous Servers", [4]string{"Yes", "Yes", "Yes", "Yes"}},
		{"SLO-awareness", [4]string{"No", "Yes", "Indirect", "Yes"}},
		{"Auto-scaling", [4]string{"No", "Yes", "Yes", "Yes"}},
		{"Exploit Future Forecast", [4]string{"No", "Partially", "No", "Yes"}},
		{"Latency-aware provisioning", [4]string{"No", "No", "Yes", "Yes"}},
	}
	fmt.Fprintf(w, "Table 1: Comparison between different approaches\n")
	fmt.Fprintf(w, "%-28s %-10s %-10s %-9s %s\n", "", "ExoSphere", "Tributary", "Qu et al.", "SpotWeb")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-10s %-10s %-9s %s\n", r.feature, r.vals[0], r.vals[1], r.vals[2], r.vals[3])
	}
}
