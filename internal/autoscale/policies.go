// Package autoscale implements the provisioning policies the evaluation
// compares: SpotWeb (the MPO planner), ExoSphere-in-a-loop (single-period
// portfolio optimization re-run every interval on backward-looking data),
// a constant portfolio with an autoscaler (Fig. 5(c)/6(a) baseline), and
// pure on-demand provisioning (the 90%-savings reference).
package autoscale

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
)

// Stepper is one round of a receding-horizon planner: observe interval t's
// arrival rate, plan interval t+1. *portfolio.Planner and the sharded
// *federation.Planner implement it.
type Stepper interface {
	Step(t int, actualLambda float64) (*portfolio.Decision, error)
}

// Planner binds a Stepper to the simulator's Policy interface — the one
// place the control loop meets sim.Policy, whichever planner is behind it.
type Planner struct {
	Stepper
	// Label names the policy in output (e.g. the horizon variant).
	Label string
}

// Name implements sim.Policy.
func (p Planner) Name() string { return p.Label }

// Decide implements sim.Policy.
func (p Planner) Decide(t int, observed float64) ([]int, error) {
	dec, err := p.Step(t, observed)
	if err != nil {
		return nil, err
	}
	return dec.Counts, nil
}

// NewSpotWeb builds the full SpotWeb policy.
func NewSpotWeb(cfg portfolio.Config, cat *market.Catalog, wl predict.Predictor, src portfolio.ForecastSource) Planner {
	return Planner{
		Stepper: portfolio.NewPlanner(cfg, cat, wl, src),
		Label:   fmt.Sprintf("spotweb-h%d", cfg.WithDefaults().Horizon),
	}
}

// NewExoSphereLoop builds §6.4's "ExoSphere in a loop" baseline: single-period
// portfolio optimization re-run every interval with purely backward-looking
// information. It shares the MPO machinery with SpotWeb but is pinned to
// H = 1, a reactive workload predictor and a reactive market source, exactly
// the information set ExoSphere uses. Like any production reactive autoscaler
// it carries a fixed 15% capacity headroom (AMin = 1.15); it just cannot
// anticipate workload, price or failure dynamics.
func NewExoSphereLoop(cat *market.Catalog, alpha float64) Planner {
	cfg := portfolio.Config{Horizon: 1, Alpha: alpha, AMin: 1.15, AMax: 1.6}
	return Planner{
		Stepper: portfolio.NewPlanner(cfg, cat, &predict.Reactive{}, portfolio.ReactiveSource{Cat: cat}),
		Label:   "exosphere-loop",
	}
}

// ConstantPortfolio freezes a portfolio mix and only autoscales the total
// size with demand — Fig. 5(c)'s "constant portfolio with an auto-scaler".
type ConstantPortfolio struct {
	Cat *market.Catalog
	// Weights is the frozen fractional portfolio (sums to 1).
	Weights linalg.Vector
	// Headroom multiplies predicted demand (e.g. 1.15 for 15% padding).
	Headroom float64
	// Workload forecasts the next interval's demand.
	Workload predict.Predictor
}

// NewConstantPortfolio validates and builds the baseline.
func NewConstantPortfolio(cat *market.Catalog, weights linalg.Vector, headroom float64, wl predict.Predictor) (*ConstantPortfolio, error) {
	if len(weights) != cat.Len() {
		return nil, fmt.Errorf("autoscale: %d weights for %d markets", len(weights), cat.Len())
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("autoscale: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("autoscale: zero weight vector")
	}
	norm := weights.Clone().Scale(1 / sum)
	if headroom <= 0 {
		headroom = 1.15
	}
	return &ConstantPortfolio{Cat: cat, Weights: norm, Headroom: headroom, Workload: wl}, nil
}

// Name implements sim.Policy.
func (p *ConstantPortfolio) Name() string { return "constant-portfolio" }

// Decide implements sim.Policy.
func (p *ConstantPortfolio) Decide(_ int, observed float64) ([]int, error) {
	p.Workload.Observe(observed)
	lam := p.Workload.Predict(1)[0] * p.Headroom
	counts := make([]int, p.Cat.Len())
	for i, w := range p.Weights {
		if w <= 0 {
			continue
		}
		counts[i] = int(math.Ceil(w * lam / p.Cat.Markets[i].Type.Capacity))
	}
	return counts, nil
}

// FreezeWeights runs one single-period optimization at interval t and
// returns the resulting fractional portfolio, normalized — how the constant
// portfolio of Fig. 5(c) is chosen ("set based on the market prices after
// 2 hours of running").
func FreezeWeights(cat *market.Catalog, t int, lambda, alpha float64) (linalg.Vector, error) {
	cfg := portfolio.Config{Horizon: 1, Alpha: alpha}
	in := &portfolio.Inputs{
		Lambda:     []float64{lambda},
		PerReqCost: [][]float64{cat.PerRequestCosts(t)},
		FailProb:   [][]float64{cat.FailProbs(t)},
		Risk:       cat.CovarianceMatrix(t, cat.TwoWeekWindow()),
	}
	plan, err := portfolio.Optimize(cfg, in)
	if err != nil {
		return nil, err
	}
	w := plan.First().Clone()
	if s := w.Sum(); s > 0 {
		w.Scale(1 / s)
	}
	return w, nil
}

// Qu implements the Qu et al. heuristic from Table 1 (reference [29]): the
// user specifies K, the number of concurrent market failures to survive; the
// policy spreads demand evenly over the M cheapest transient markets sized
// so that losing any K of them still leaves full capacity — i.e. each market
// carries demand/(M−K). SLO-awareness is only indirect (through K) and no
// future knowledge is used.
type Qu struct {
	Cat *market.Catalog
	// M is the number of markets used; K the failures tolerated (K < M).
	M, K     int
	Workload predict.Predictor
}

// NewQu validates and builds the baseline.
func NewQu(cat *market.Catalog, m, k int, wl predict.Predictor) (*Qu, error) {
	if m <= 0 || k < 0 || k >= m {
		return nil, fmt.Errorf("autoscale: invalid Qu parameters M=%d K=%d", m, k)
	}
	transient := 0
	for _, mk := range cat.Markets {
		if mk.Transient {
			transient++
		}
	}
	if m > transient {
		return nil, fmt.Errorf("autoscale: Qu needs %d transient markets, catalog has %d", m, transient)
	}
	return &Qu{Cat: cat, M: m, K: k, Workload: wl}, nil
}

// Name implements sim.Policy.
func (p *Qu) Name() string { return fmt.Sprintf("qu-m%d-k%d", p.M, p.K) }

// Decide implements sim.Policy.
func (p *Qu) Decide(t int, observed float64) ([]int, error) {
	p.Workload.Observe(observed)
	lam := p.Workload.Predict(1)[0]
	// Pick the M cheapest transient markets right now.
	type cand struct {
		i    int
		cost float64
	}
	var cands []cand
	for i, mk := range p.Cat.Markets {
		if mk.Transient {
			cands = append(cands, cand{i, mk.PerRequestCostAt(t)})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].cost < cands[b].cost })
	perMarket := lam / float64(p.M-p.K)
	counts := make([]int, p.Cat.Len())
	for _, c := range cands[:p.M] {
		counts[c.i] = int(math.Ceil(perMarket / p.Cat.Markets[c.i].Type.Capacity))
	}
	return counts, nil
}

// OnDemand provisions everything on the cheapest-per-request on-demand
// market — the conventional-cloud reference against which transient systems
// save 70–90%.
type OnDemand struct {
	Cat      *market.Catalog
	Headroom float64
	Workload predict.Predictor
	mkt      int
}

// NewOnDemand picks the cheapest on-demand market in the catalog.
func NewOnDemand(cat *market.Catalog, headroom float64, wl predict.Predictor) (*OnDemand, error) {
	best, bestCost := -1, 0.0
	for i, m := range cat.Markets {
		if m.Transient {
			continue
		}
		c := m.PerRequestCostAt(0)
		if best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("autoscale: catalog has no on-demand market")
	}
	if headroom <= 0 {
		headroom = 1.15
	}
	return &OnDemand{Cat: cat, Headroom: headroom, Workload: wl, mkt: best}, nil
}

// Name implements sim.Policy.
func (p *OnDemand) Name() string { return "on-demand" }

// Decide implements sim.Policy.
func (p *OnDemand) Decide(_ int, observed float64) ([]int, error) {
	p.Workload.Observe(observed)
	lam := p.Workload.Predict(1)[0] * p.Headroom
	counts := make([]int, p.Cat.Len())
	counts[p.mkt] = int(math.Ceil(lam / p.Cat.Markets[p.mkt].Type.Capacity))
	return counts, nil
}
