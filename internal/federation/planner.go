package federation

import (
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/portfolio"
	"repro/internal/predict"
)

// PlannerConfig parameterizes the sharded planner.
type PlannerConfig struct {
	// Portfolio is the base per-shard optimizer config. AMin/AMax are
	// interpreted as GLOBAL allocation budgets and scaled by each shard's
	// share; AMaxPerMarket stays per-market and is not scaled.
	Portfolio portfolio.Config
	// CoordRounds bounds the budget-split coordination loop (default 3).
	// Round r solves every shard under the current shares, compares marginal
	// costs and reweights; the loop exits early once marginal costs agree
	// within CoordTol.
	CoordRounds int
	// CoordTol is the relative marginal-cost spread below which the shares
	// are considered balanced (default 0.05).
	CoordTol float64
	// Eta is the multiplicative-weights step of the share update
	// (default 0.5). Larger moves budget faster but can oscillate.
	Eta float64
	// ShareFloor is the minimum share any live shard keeps (default
	// 0.1/numShards) so a temporarily expensive shard can re-enter.
	ShareFloor float64
	// Parallelism bounds the shard-solve worker pool (0/1 serial, <0 all
	// cores) — shard solves within a coordination round are independent.
	Parallelism int
	// CovWindow is the trailing covariance window in intervals (0 = 14 days),
	// applied per shard.
	CovWindow int
	// MinServerFraction mirrors portfolio.Planner (default 0.05).
	MinServerFraction float64
}

func (c PlannerConfig) withDefaults(numShards int) PlannerConfig {
	c.Portfolio = c.Portfolio.WithDefaults()
	if c.CoordRounds <= 0 {
		c.CoordRounds = 3
	}
	if c.CoordTol <= 0 {
		c.CoordTol = 0.05
	}
	if c.Eta <= 0 {
		c.Eta = 0.5
	}
	if c.ShareFloor <= 0 {
		c.ShareFloor = 0.1 / float64(numShards)
	}
	if c.MinServerFraction <= 0 {
		c.MinServerFraction = 0.05
	}
	return c
}

// Stats reports one planning round of the federated planner.
type Stats struct {
	Shards int
	// Markets is the merged market count planned this round.
	Markets int
	// Rounds is the number of coordination rounds actually run (1 when a
	// single shard skips coordination, ≤ CoordRounds otherwise).
	Rounds int
	// Fallbacks counts shards that fell back to the proportional split this
	// round because a solve failed or produced non-finite marginals.
	Fallbacks int
	// Shares is the final budget share per shard (sums exactly to 1).
	Shares []float64
	// ShardSeconds is the per-shard wall time of the final round's solves.
	ShardSeconds []float64
	// The three phases of WallSeconds. CovarianceSeconds is the wall time of
	// the input fan-out on the shard pool: the shard covariances plus, as one
	// more task, the shared input build (forecast, overlay), whose own
	// duration is InputBuildSeconds (inside CovarianceSeconds, not beside it).
	// SolveSeconds is the wall time of the coordination loop; slicing, merging
	// and integerization are the remainder.
	InputBuildSeconds float64
	CovarianceSeconds float64
	SolveSeconds      float64
	// WallSeconds is the full Step wall time.
	WallSeconds float64
}

// Planner is the federated receding-horizon controller: one shared workload
// predictor and forecast source over the merged catalog, one portfolio shard
// per AZ (each with its own warm-start lifecycle and per-shard covariance),
// coordinated by a budget-split loop over the global allocation budget.
//
// Coordination works on first-interval marginal costs: after each round's
// shard solves, the marginal cost of shard s is the cheapest first-period
// cost gradient among its uncapped markets (λ·C + P·(fλL + MAE) + 2α(Ma)ᵢ;
// the churn term is omitted — a documented heuristic, it vanishes at steady
// state). Shares move hierarchically by multiplicative weights — regions
// reweight against the global mean, then AZs against their region's mean —
// with a floor and an exact-sum renormalization (fixSum), so shares stay
// nonnegative and sum exactly to 1 by construction. If any shard solve fails
// or yields a non-finite marginal, the round falls back to the
// capacity-proportional split (the documented fallback; also the initial
// split) and spotweb_fed_fallback_total ticks.
//
// A single-shard federation skips coordination entirely with share = 1.0, so
// its solves are bit-for-bit those of an unsharded portfolio.Planner on the
// same catalog.
type Planner struct {
	Fed      *Federation
	Cfg      PlannerConfig
	Workload predict.Predictor
	Source   portfolio.ForecastSource
	// RiskOverlay applies PR 7's estimator-corrected failure probabilities
	// over the merged view (global market indices), before sharding.
	RiskOverlay portfolio.OverlayProvider
	Metrics     *metrics.Registry

	builder   portfolio.InputBuilder
	solvers   []*portfolio.WarmSolver
	pool      *parallel.Pool
	caps      []float64       // per-market capacity over the merged catalog
	riskAlloc []linalg.Vector // per-shard M·a₀ scratch of marginalCost
	prevAlloc linalg.Vector
	shares    []float64
	stats     Stats
}

// NewPlanner wires a federated planner with defaults. src must address the
// merged catalog (global market indices).
func NewPlanner(fed *Federation, cfg PlannerConfig, workload predict.Predictor, src portfolio.ForecastSource) *Planner {
	c := cfg.withDefaults(len(fed.Shards))
	if c.CovWindow <= 0 {
		c.CovWindow = fed.Merged.TwoWeekWindow()
	}
	p := &Planner{
		Fed: fed, Cfg: c, Workload: workload, Source: src,
		pool: parallel.PoolFor(c.Parallelism),
	}
	p.solvers = make([]*portfolio.WarmSolver, len(fed.Shards))
	p.riskAlloc = make([]linalg.Vector, len(fed.Shards))
	for i, sh := range fed.Shards {
		p.solvers[i] = &portfolio.WarmSolver{}
		p.riskAlloc[i] = linalg.NewVector(sh.Cat.Len())
	}
	p.caps = make([]float64, fed.Len())
	for i, m := range fed.Merged.Markets {
		p.caps[i] = m.Type.Capacity
	}
	return p
}

// LastStats returns the previous Step's coordination stats.
func (p *Planner) LastStats() Stats {
	st := p.stats
	st.Shares = append([]float64(nil), p.stats.Shares...)
	st.ShardSeconds = append([]float64(nil), p.stats.ShardSeconds...)
	return st
}

// shardResult carries one shard solve out of the worker pool.
type shardResult struct {
	plan *portfolio.Plan
	err  error
	mc   float64
	secs float64
}

// Step observes the actual workload of interval t and plans interval t+1
// across all shards. The returned Decision is global: the merged plan's
// first-interval allocation and server counts span the merged catalog.
func (p *Planner) Step(t int, actualLambda float64) (*portfolio.Decision, error) {
	start := time.Now()
	shards := p.Fed.Shards
	nGlobal := p.Fed.Len()
	h := p.Cfg.Portfolio.Horizon

	p.builder.Workload, p.builder.Source = p.Workload, p.Source
	p.builder.RiskOverlay, p.builder.Metrics = p.RiskOverlay, p.Metrics
	for _, ws := range p.solvers {
		ws.Metrics = p.Metrics
	}

	// The input side is one fan-out: covariances are shard-local, depend only
	// on (t, CovWindow) and are cached for the whole coordination loop, so the
	// shared input build runs beside them instead of ahead of them.
	var (
		in        *portfolio.Inputs
		epoch     uint64
		inputSecs float64
	)
	risks := p.shardCovariances(t, func() {
		t0 := time.Now()
		in, epoch = p.builder.Build(t, h, actualLambda)
		inputSecs = time.Since(t0).Seconds()
	})
	covSecs := time.Since(start).Seconds()

	// Per-shard inputs: rows are subslices of the merged rows (overlay
	// already applied globally).
	shardIns := make([]*portfolio.Inputs, len(shards))
	for s, sh := range shards {
		si := &portfolio.Inputs{
			Lambda:       in.Lambda,
			PerReqCost:   make([][]float64, h),
			FailProb:     make([][]float64, h),
			ShortfallMAE: in.ShortfallMAE,
			Risk:         risks[s],
		}
		for τ := 0; τ < h; τ++ {
			si.PerReqCost[τ] = in.PerReqCost[τ][sh.Lo:sh.Hi]
			si.FailProb[τ] = in.FailProb[τ][sh.Lo:sh.Hi]
		}
		if p.prevAlloc != nil {
			si.PrevAlloc = linalg.Vector(p.prevAlloc[sh.Lo:sh.Hi])
		}
		shardIns[s] = si
	}

	if p.shares == nil {
		p.shares = p.proportionalShares()
	}
	shares := append([]float64(nil), p.shares...)

	// One solve closure per shard, reused by every coordination round: each
	// reads the share current when it runs.
	results := make([]shardResult, len(shards))
	solves := make([]func(), len(shards))
	for s := range shards {
		solves[s] = func() {
			t0 := time.Now()
			cfg := p.shardConfig(shares[s])
			plan, err := p.solvers[s].Solve(cfg, shards[s].Cat, shardIns[s], epoch)
			mc := math.Inf(1)
			if err == nil {
				mc = p.marginalCost(s, cfg, shardIns[s], plan)
			}
			results[s] = shardResult{plan: plan, err: err, mc: mc, secs: time.Since(t0).Seconds()}
		}
	}
	solveRound := func() { p.pool.Do(solves...) }
	solveStart := time.Now()

	rounds, fallbacks := 0, 0
	if len(shards) == 1 {
		// Single shard: the whole budget is one share; no coordination.
		shares[0] = 1.0
		solveRound()
		rounds = 1
		if results[0].err != nil {
			p.Metrics.Counter("spotweb_solver_errors_total", "MPO solves that failed.").Inc()
			return nil, results[0].err
		}
	} else {
		for r := 0; r < p.Cfg.CoordRounds; r++ {
			solveRound()
			rounds = r + 1
			bad := false
			for s := range results {
				if results[s].err != nil || !isFinite(results[s].mc) {
					bad = true
					fallbacks++
				}
			}
			if bad {
				// Documented fallback: capacity-proportional split. One more
				// solve under it, then stop coordinating this round.
				p.Metrics.Counter("spotweb_fed_fallback_total",
					"Coordination rounds that fell back to the capacity-proportional budget split.").Inc()
				copy(shares, p.proportionalShares())
				solveRound()
				rounds++
				for s := range results {
					if results[s].err != nil {
						p.Metrics.Counter("spotweb_solver_errors_total", "MPO solves that failed.").Inc()
						return nil, fmt.Errorf("federation: shard %s: %w", shards[s].Name(), results[s].err)
					}
				}
				break
			}
			if r == p.Cfg.CoordRounds-1 || p.balanced(results) {
				break
			}
			p.reweight(shares, results)
		}
	}

	solveSecs := time.Since(solveStart).Seconds()

	// Accept the final round: shift each shard's warm state once, merge the
	// horizon plans into one global plan.
	for s := range shards {
		p.solvers[s].Shift(shards[s].Cat.Len())
	}
	plan := mergePlans(results, shards, nGlobal, h)
	p.shares = shares

	merged := plan.First()
	p.prevAlloc = merged.Clone()

	counts := portfolio.ServerCounts(merged, in.Lambda[0], p.caps, p.Cfg.MinServerFraction)

	p.stats = Stats{
		Shards: len(shards), Markets: nGlobal, Rounds: rounds, Fallbacks: fallbacks,
		Shares:            append([]float64(nil), shares...),
		InputBuildSeconds: inputSecs,
		CovarianceSeconds: covSecs,
		SolveSeconds:      solveSecs,
		WallSeconds:       time.Since(start).Seconds(),
	}
	p.stats.ShardSeconds = make([]float64, len(shards))
	for s := range results {
		p.stats.ShardSeconds[s] = results[s].secs
	}
	p.recordMetrics(t)

	return &portfolio.Decision{
		Plan:            plan,
		Counts:          counts,
		PredictedLambda: in.Lambda[0],
		Capacity:        portfolio.CapacityOf(counts, p.caps),
	}, nil
}

// shardCovariances returns every shard's covariance matrix, computed on the
// shard pool with build as one more task of the same fan-out (first: it is
// the longest). Shards read disjoint catalogs and each task writes its own
// slot, so the matrices are the serial loop's bit for bit at any pool width.
func (p *Planner) shardCovariances(t int, build func()) []*linalg.Matrix {
	risks := make([]*linalg.Matrix, len(p.Fed.Shards))
	fns := make([]func(), 1, 1+len(risks))
	fns[0] = build
	for s, sh := range p.Fed.Shards {
		fns = append(fns, func() { risks[s] = sh.Cat.CovarianceMatrix(t, p.Cfg.CovWindow) })
	}
	p.pool.Do(fns...)
	return risks
}

// shardConfig scales the global allocation budget [AMin, AMax] by a shard's
// share. AMaxPerMarket is a per-market cap and stays unscaled. A share of
// exactly 1.0 returns the base config unchanged (multiplication by 1.0 is
// exact in IEEE-754), which is what makes the single-shard path bit-for-bit.
func (p *Planner) shardConfig(share float64) portfolio.Config {
	cfg := p.Cfg.Portfolio
	cfg.AMin *= share
	cfg.AMax *= share
	return cfg
}

// proportionalShares is the capacity-proportional budget split — the initial
// split and the fallback when coordination cannot trust its marginals.
func (p *Planner) proportionalShares() []float64 {
	shares := make([]float64, len(p.Fed.Shards))
	var total float64
	for s, sh := range p.Fed.Shards {
		var cap float64
		for _, m := range sh.Cat.Markets {
			cap += m.Type.Capacity
		}
		shares[s] = cap
		total += cap
	}
	if total <= 0 {
		for s := range shares {
			shares[s] = 1
		}
	}
	fixSum(shares, 1.0)
	return shares
}

// marginalCost returns the shard's cheapest first-period cost gradient over
// its uncapped markets: d/dAᵢ [λC·A + P·(fλL + MAE)·A + α AᵀMA] evaluated at
// the solved first-interval allocation. Markets pinned at the per-market cap
// cannot absorb more budget and are skipped; if every market is capped the
// marginal is +Inf (the shard is saturated).
func (p *Planner) marginalCost(s int, cfg portfolio.Config, in *portfolio.Inputs, plan *portfolio.Plan) float64 {
	a0 := plan.First()
	ma := in.Risk.MulVec(a0, p.riskAlloc[s])
	lam := in.Lambda[0]
	mc := math.Inf(1)
	for i := range a0 {
		if a0[i] >= cfg.AMaxPerMarket-1e-9 {
			continue
		}
		g := lam*in.PerReqCost[0][i] +
			cfg.PenaltyP*(in.FailProb[0][i]*lam*cfg.LongRequestFrac+in.ShortfallMAE) +
			2*cfg.Alpha*ma[i]
		if g < mc {
			mc = g
		}
	}
	return mc
}

// balanced reports whether the shards' marginal costs agree within CoordTol
// (relative spread), ignoring saturated (+Inf) shards.
func (p *Planner) balanced(results []shardResult) bool {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range results {
		if !isFinite(r.mc) {
			continue
		}
		lo, hi = math.Min(lo, r.mc), math.Max(hi, r.mc)
	}
	if !isFinite(lo) || !isFinite(hi) || hi <= 0 {
		return true
	}
	return (hi-lo)/hi <= p.Cfg.CoordTol
}

// reweight applies the hierarchical multiplicative-weights update: regions
// reweight against the global share-weighted mean marginal cost, then AZs
// within each region against the region's mean. Cheaper marginal cost ⇒
// more budget. Floors and fixSum keep the result a valid split.
func (p *Planner) reweight(shares []float64, results []shardResult) {
	shards := p.Fed.Shards

	// Region aggregates: share-weighted mean marginal cost per region.
	type agg struct {
		share float64
		mc    float64
		idx   []int
	}
	regions := make(map[int]*agg)
	var order []int
	for s, sh := range shards {
		a := regions[sh.RegionIdx]
		if a == nil {
			a = &agg{}
			regions[sh.RegionIdx] = a
			order = append(order, sh.RegionIdx)
		}
		mc := results[s].mc
		if !isFinite(mc) {
			// Saturated shard: treat as very expensive so budget drains away.
			mc = 0
			for _, r := range results {
				if isFinite(r.mc) && r.mc > mc {
					mc = r.mc
				}
			}
			mc *= 2
		}
		a.share += shares[s]
		a.mc += shares[s] * mc
		a.idx = append(a.idx, s)
	}
	var globalMean, totShare float64
	for _, r := range order {
		a := regions[r]
		if a.share > 0 {
			a.mc /= a.share
		}
		globalMean += a.mc * a.share
		totShare += a.share
	}
	if totShare > 0 {
		globalMean /= totShare
	}
	if globalMean <= 0 || !isFinite(globalMean) {
		return
	}

	// Level 1: region shares against the global mean.
	regionShare := make(map[int]float64, len(order))
	for _, r := range order {
		a := regions[r]
		w := a.share * math.Exp(-p.Cfg.Eta*(a.mc-globalMean)/globalMean)
		regionShare[r] = w
	}
	rs := make([]float64, len(order))
	for i, r := range order {
		rs[i] = regionShare[r]
	}
	fixSum(rs, 1.0)

	// Level 2: AZ sub-shares against the region mean, scaled into the
	// region's share.
	for i, r := range order {
		a := regions[r]
		sub := make([]float64, len(a.idx))
		for j, s := range a.idx {
			mc := results[s].mc
			if !isFinite(mc) {
				mc = 2 * a.mc
			}
			base := a.mc
			if base <= 0 {
				base = globalMean
			}
			sub[j] = shares[s] * math.Exp(-p.Cfg.Eta*(mc-base)/base)
		}
		fixSum(sub, 1.0)
		for j, s := range a.idx {
			shares[s] = rs[i] * sub[j]
		}
	}

	// Floor and exact-sum renormalization.
	for s := range shares {
		if shares[s] < p.Cfg.ShareFloor {
			shares[s] = p.Cfg.ShareFloor
		}
	}
	fixSum(shares, 1.0)
}

// mergePlans concatenates the shard plans into one global plan over the
// merged catalog: per-period allocations are stitched shard by shard,
// iterations, objectives, coupled-market and projection counts sum, wall time takes the
// slowest shard (they run concurrently) and the status is the worst across
// shards.
func mergePlans(results []shardResult, shards []Shard, n, h int) *portfolio.Plan {
	out := &portfolio.Plan{Alloc: make([]linalg.Vector, h)}
	for τ := 0; τ < h; τ++ {
		out.Alloc[τ] = make(linalg.Vector, n)
	}
	for s, r := range results {
		pl := r.plan
		if pl == nil {
			continue
		}
		for τ := 0; τ < h && τ < len(pl.Alloc); τ++ {
			copy(out.Alloc[τ][shards[s].Lo:shards[s].Hi], pl.Alloc[τ])
		}
		out.Objective += pl.Objective
		out.Iterations += pl.Iterations
		if pl.SolveTime > out.SolveTime {
			out.SolveTime = pl.SolveTime
		}
		if pl.Status > out.Status {
			out.Status = pl.Status
		}
		if pl.PriRes > out.PriRes {
			out.PriRes = pl.PriRes
		}
		out.WarmStarted = out.WarmStarted || pl.WarmStarted
		out.RiskCoupled += pl.RiskCoupled
		out.Projection.Add(pl.Projection)
	}
	return out
}

// recordMetrics publishes the federation gauges. Nil registry is free.
func (p *Planner) recordMetrics(t int) {
	m := p.Metrics
	if m == nil {
		return
	}
	m.Gauge("spotweb_fed_shards", "Planner shards (AZ catalogs) in the federation.").
		Set(float64(p.stats.Shards))
	m.Gauge("spotweb_fed_markets", "Markets in the merged federated catalog.").
		Set(float64(p.stats.Markets))
	m.Histogram("spotweb_fed_coord_rounds", "Budget-split coordination rounds per planning step.").
		Observe(float64(p.stats.Rounds))
	for _, secs := range p.stats.ShardSeconds {
		m.Histogram("spotweb_fed_shard_solve_seconds", "Per-shard optimizer wall time in the final coordination round.").
			Observe(secs)
	}
	m.Histogram("spotweb_planner_covariance_seconds", "Risk covariance estimation wall time per planning step.").
		Observe(p.stats.CovarianceSeconds)
	m.Gauge("spotweb_plan_interval", "Planning interval index of the last solve.").Set(float64(t))
}

// fixSum clamps shares nonnegative and renormalizes them so their plain
// left-to-right sum equals total EXACTLY (bitwise). Budget conservation is an
// invariant the coordinator's correctness rests on (and the property test
// asserts), not an approximation. After scaling, the last element is rebuilt
// as total minus the left-to-right prefix of the others — exact by Sterbenz
// when the prefix dominates — and then walked by ulps: one-ulp moves of the
// last element step the rounded sum through adjacent floats, so the walk
// cannot skip total and terminates in a handful of steps.
func fixSum(shares []float64, total float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	for i, s := range shares {
		if s < 0 || math.IsNaN(s) {
			shares[i] = 0
		}
	}
	for iter := 0; iter < 16; iter++ {
		sum := sumOf(shares)
		if sum == total {
			return
		}
		if sum <= 0 || !isFinite(sum) {
			u := total / float64(n)
			for i := range shares {
				shares[i] = u
			}
			continue
		}
		scale := total / sum
		for i := range shares {
			shares[i] *= scale
		}
		prefix := sumOf(shares[:n-1])
		if !isFinite(prefix) || prefix > total {
			// The prefix alone overshoots; rescale and retry.
			continue
		}
		shares[n-1] = total - prefix
		for k := 0; k < 64; k++ {
			sum := sumOf(shares)
			if sum == total {
				return
			}
			next := math.Nextafter(shares[n-1], math.Inf(1))
			if sum > total {
				next = math.Nextafter(shares[n-1], math.Inf(-1))
			}
			if next < 0 {
				break
			}
			shares[n-1] = next
		}
	}
}

func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
