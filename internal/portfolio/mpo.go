package portfolio

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/linalg"
	"repro/internal/solver"
)

// Plan is the optimizer output: one allocation vector per horizon step. Only
// the first step is executed by the receding-horizon controller.
type Plan struct {
	// Alloc[τ][i] is the fraction of step-τ predicted load on market i.
	Alloc []linalg.Vector
	// Objective is the optimal cost (lower is better; $-denominated terms
	// plus the risk regularizer).
	Objective float64
	// SolveTime is the wall-clock optimizer latency (the Fig. 7(b) metric).
	SolveTime  time.Duration
	Iterations int
	Status     solver.Status
	// PriRes is the solver's final primal residual (inf-norm) — the
	// convergence quality the monitoring subsystem exposes per solve.
	PriRes float64
	// WarmStarted reports whether the solve was seeded from a previous
	// round's warm state (iterates or Lipschitz cache).
	WarmStarted bool
	// RiskCoupled is the number of markets the risk matvec multiplied: the
	// FISTA backend skips markets whose row and column of M are zero off the
	// diagonal (every on-demand market) when M is a *linalg.Compact or a
	// symmetric dense matrix. Equals the market count when nothing was
	// skipped, and always for ADMM or a sparse or factor-model risk.
	RiskCoupled int
	// Projection counts the FISTA projections that bisected, their real passes
	// and grid jumps (zero for ADMM): Projection.PassesPerProjection() ≈ 6
	// means the bisection's certificate answered its queries, ≈ 50 that every
	// query was evaluated.
	Projection solver.ProjectionStats
	// warm is the solver state that can seed the next receding-horizon
	// round (Planner shifts it one period before reuse).
	warm *solver.WarmState
}

// First returns the first-interval allocation (the executed trade).
func (p *Plan) First() linalg.Vector { return p.Alloc[0] }

// horizonOperator is the Hessian of the MPO objective as a matrix-free
// operator: block-diagonal risk (2αM per period) plus the tridiagonal churn
// coupling 2κ(‖A_τ − A_{τ−1}‖² terms).
type horizonOperator struct {
	m     linalg.MatVec // risk matrix M
	alpha float64
	kappa float64
	n, h  int
}

// Apply implements solver.QuadOperator.
func (o *horizonOperator) Apply(x, dst linalg.Vector) {
	n, h := o.n, o.h
	// All periods go to M in one call, so M is read once.
	o.m.MulVecStacked(x, dst)
	dst.Scale(2 * o.alpha)
	if o.kappa == 0 {
		return
	}
	k2 := 2 * o.kappa
	for τ := 0; τ < h; τ++ {
		xb := x[τ*n : (τ+1)*n]
		db := dst[τ*n : (τ+1)*n]
		// Each A_τ appears in the (τ) difference and, if τ+1 < h, in the
		// (τ+1) difference.
		diagCount := 1.0
		if τ+1 < h {
			diagCount = 2.0
		}
		for i := 0; i < n; i++ {
			db[i] += float64(k2 * diagCount * xb[i])
		}
		if τ > 0 {
			prev := x[(τ-1)*n : τ*n]
			for i := 0; i < n; i++ {
				db[i] -= float64(k2 * prev[i])
			}
		}
		if τ+1 < h {
			next := x[(τ+1)*n : (τ+2)*n]
			for i := 0; i < n; i++ {
				db[i] -= float64(k2 * next[i])
			}
		}
	}
}

// Dim implements solver.QuadOperator.
func (o *horizonOperator) Dim() int { return o.n * o.h }

// churnWeight converts the dimensionless ChurnKappa into dollar units by
// scaling with the mean per-interval spend λ·C̄ over the horizon, so the
// churn term competes with the provisioning cost on equal footing.
func (c Config) churnWeight(in *Inputs, n int) float64 {
	if c.ChurnKappa <= 0 {
		return 0
	}
	var spend float64
	for τ := 0; τ < c.Horizon; τ++ {
		var meanC float64
		for i := 0; i < n; i++ {
			meanC += in.PerReqCost[τ][i]
		}
		meanC /= float64(n)
		spend += in.Lambda[τ] * meanC
	}
	spend /= float64(c.Horizon)
	if spend <= 0 {
		return 0
	}
	return c.ChurnKappa * spend
}

// buildLinear assembles the stacked linear cost vector, including the churn
// cross-term with the fixed previous allocation (−2κ·prev on the first
// block), into q when it has the length and into a new vector otherwise.
func (c Config) buildLinear(in *Inputs, n int, kappa float64, q linalg.Vector) linalg.Vector {
	h := c.Horizon
	if len(q) != n*h {
		q = linalg.NewVector(n * h)
	}
	for τ := 0; τ < h; τ++ {
		for i := 0; i < n; i++ {
			q[τ*n+i] = c.linearCost(in, τ, i)
		}
	}
	if kappa > 0 && in.PrevAlloc != nil {
		for i := 0; i < n; i++ {
			q[i] -= float64(2 * kappa * in.PrevAlloc[i])
		}
	}
	return q
}

// feasibleSet builds the horizon-stacked projection set (constraints 7–10),
// plus the per-period anchor floor Σ_OD A ≥ AMinOnDemand when configured.
func (c Config) feasibleSet(n int, anchorIdx []int) *solver.ProductSet {
	blocks := make([]*solver.BoxBand, c.Horizon)
	// Every period has the same box and nothing writes it after construction,
	// so the blocks share one pair of bound vectors.
	lo := linalg.NewVector(n)
	hi := linalg.NewVector(n)
	hi.Fill(c.AMaxPerMarket)
	for τ := 0; τ < c.Horizon; τ++ {
		blocks[τ] = solver.NewBoxBand(lo, hi, c.AMin, c.AMax)
		if c.AMinOnDemand > 0 {
			blocks[τ].WithAnchor(anchorIdx, c.AMinOnDemand)
		}
	}
	return solver.NewProductSet(blocks)
}

// workspace is what one WarmSolver's FISTA solves reuse from round to round:
// the feasible set, the linear cost vector and the Hessian operator. The set
// is rebuilt only when the market count, the horizon, the per-market cap, the
// anchor floor or the anchor markets change; the budget band [AMin, AMax] —
// a federation shard's moves at every coordination round — is set in place
// before every solve, which leaves the set as a freshly built one would be.
type workspace struct {
	set           *solver.ProductSet
	n, h          int
	aMaxPer, aMin float64 // AMaxPerMarket and AMinOnDemand the set was built for
	anchor        []int
	q             linalg.Vector
	op            horizonOperator
}

// feasible returns c's feasible set over n markets, anchored on in's
// on-demand markets when c sets a floor.
func (w *workspace) feasible(c Config, in *Inputs, n int) *solver.ProductSet {
	if w.set == nil || w.n != n || w.h != c.Horizon || w.aMaxPer != c.AMaxPerMarket ||
		w.aMin != c.AMinOnDemand || (c.AMinOnDemand > 0 && !sameIndices(w.anchor, in.OnDemand)) {
		var anchor []int
		if c.AMinOnDemand > 0 {
			anchor = in.anchorIdx()
		}
		w.set = c.feasibleSet(n, anchor)
		w.n, w.h, w.aMaxPer, w.aMin, w.anchor = n, c.Horizon, c.AMaxPerMarket, c.AMinOnDemand, anchor
		return w.set
	}
	w.set.SetBand(c.AMin, c.AMax)
	return w.set
}

// sameIndices reports whether idx lists exactly the set entries of marks, in
// order.
func sameIndices(idx []int, marks []bool) bool {
	k := 0
	for i, m := range marks {
		if m {
			if k == len(idx) || idx[k] != i {
				return false
			}
			k++
		}
	}
	return k == len(idx)
}

// Optimize solves the MPO program and returns the plan (cold start).
func Optimize(cfg Config, in *Inputs) (*Plan, error) {
	return OptimizeWarm(cfg, in, nil)
}

// OptimizeWarm solves the MPO program, optionally seeding the solver from a
// previous round's warm state (see solver.WarmState). The state is consumed;
// the state for the *next* round rides back on the returned Plan. A nil warm
// state is a cold start — OptimizeWarm(cfg, in, nil) ≡ Optimize(cfg, in). The
// ADMM backend ignores warm, always solves cold and returns no warm state.
func OptimizeWarm(cfg Config, in *Inputs, warm *solver.WarmState) (*Plan, error) {
	return optimize(cfg, in, warm, nil)
}

// optimize is OptimizeWarm building its FISTA solve's set, cost vector and
// operator in ws when ws is non-nil.
func optimize(cfg Config, in *Inputs, warm *solver.WarmState, ws *workspace) (*Plan, error) {
	c := cfg.WithDefaults()
	n, err := in.Validate(c.Horizon)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("portfolio: no markets")
	}
	if c.AMin > float64(n)*c.AMaxPerMarket {
		return nil, fmt.Errorf("portfolio: AMin %v unreachable with %d markets capped at %v",
			c.AMin, n, c.AMaxPerMarket)
	}
	if c.AMinOnDemand > 0 {
		nOD := 0
		for _, od := range in.OnDemand {
			if od {
				nOD++
			}
		}
		if nOD == 0 {
			return nil, fmt.Errorf("portfolio: AMinOnDemand %v set but no on-demand markets marked", c.AMinOnDemand)
		}
		if c.AMinOnDemand > float64(nOD)*c.AMaxPerMarket {
			return nil, fmt.Errorf("portfolio: AMinOnDemand %v unreachable with %d on-demand markets capped at %v",
				c.AMinOnDemand, nOD, c.AMaxPerMarket)
		}
		if c.AMinOnDemand > c.AMax {
			return nil, fmt.Errorf("portfolio: AMinOnDemand %v exceeds AMax %v", c.AMinOnDemand, c.AMax)
		}
	}
	if _, dense := in.Risk.(*linalg.Matrix); c.Solver == SolverADMM && !dense {
		return nil, fmt.Errorf("portfolio: SolverADMM needs the dense Inputs.Risk (its KKT blocks are assembled from it); any other risk serves FISTA only")
	}
	start := time.Now()
	var res solver.Result
	coupled := n
	switch c.Solver {
	case SolverADMM:
		res = c.solveADMM(in, n)
	default:
		res, coupled = c.solveFISTA(in, n, warm, ws)
	}
	if res.Status == solver.StatusError {
		return nil, fmt.Errorf("portfolio: solver failed")
	}
	plan := &Plan{
		Objective:   res.Objective,
		SolveTime:   time.Since(start),
		Iterations:  res.Iterations,
		Status:      res.Status,
		PriRes:      res.PriRes,
		WarmStarted: res.WarmStarted,
		RiskCoupled: coupled,
		Projection:  res.Projection,
		warm:        res.Warm,
		Alloc:       make([]linalg.Vector, c.Horizon),
	}
	// res.X is the plan's own: each period's allocation is a capped window
	// of it.
	for τ := range plan.Alloc {
		alloc := res.X[τ*n : (τ+1)*n : (τ+1)*n]
		// Numerical cleanup: clip tiny negatives from solver tolerance.
		for i := range alloc {
			if alloc[i] < 0 {
				alloc[i] = 0
			}
		}
		plan.Alloc[τ] = alloc
	}
	return plan, nil
}

// maxIter returns the configured iteration budget or the backend default.
func (c Config) maxIter(def int) int {
	if c.MaxIter > 0 {
		return c.MaxIter
	}
	return def
}

// solveFISTA runs the FISTA backend and reports how many markets its risk
// matvec multiplies. A *linalg.Compact — the operator
// Catalog.CovarianceOperator builds, which the single planner and every
// federation shard pass — reports its own coupled count, so no planner's
// solve scans a matrix. A dense Inputs.Risk (the tests', bench/'s composed
// round) is scanned once for isolated markets — every on-demand market's row
// and column of M are zero off the diagonal — and applied through
// linalg.CompactRisk, which is bit-identical to the dense matvec. Any other
// risk is applied as given. The set, the cost vector and the operator live
// in ws, or in a workspace of the solve's own when ws is nil.
func (c Config) solveFISTA(in *Inputs, n int, warm *solver.WarmState, ws *workspace) (solver.Result, int) {
	kappa := c.churnWeight(in, n)
	risk, coupled := in.Risk, n
	switch op := risk.(type) {
	case *linalg.Matrix:
		risk, coupled = linalg.CompactRisk(op)
	case *linalg.Compact:
		coupled = op.Coupled()
	}
	if ws == nil {
		ws = &workspace{} // a cold solve's own
	}
	ws.op = horizonOperator{m: risk, alpha: c.Alpha, kappa: kappa, n: n, h: c.Horizon}
	ws.q = c.buildLinear(in, n, kappa, ws.q)
	pp := &solver.ProjectedProblem{P: &ws.op, Q: ws.q, C: ws.feasible(c, in, n)}
	return solver.SolveFISTA(pp, solver.FISTASettings{
		MaxIter: c.maxIter(4000), Tol: 1e-7, Warm: warm,
	}), coupled
}

// buildADMMSparse assembles the MPO program in the structured form
// solver.SolveADMM takes: a matrix-free Hessian, a CSR constraint matrix and
// the MPOStructure declaration its block-tridiagonal KKT factorization is
// assembled from. Nothing O((nh)²) is ever allocated.
func (c Config) buildADMMSparse(in *Inputs, n int, kappa float64) *solver.Problem {
	risk := in.Risk.(*linalg.Matrix) // OptimizeWarm admits ADMM with a dense risk only
	h := c.Horizon
	dim := n * h
	m := dim + h
	var anchorIdx []int
	var anchor []bool
	if c.AMinOnDemand > 0 {
		anchorIdx = in.anchorIdx()
		anchor = make([]bool, n)
		for _, i := range anchorIdx {
			anchor[i] = true
		}
		m += h // one anchor-floor row per period
	}
	// Constraint triplets: the dim box rows (identity), then one sum row per
	// period — 2·dim entries total — plus h sparse anchor rows when the
	// on-demand floor is active.
	is := make([]int, 0, 2*dim+h*len(anchorIdx))
	js := make([]int, 0, 2*dim+h*len(anchorIdx))
	vs := make([]float64, 0, 2*dim+h*len(anchorIdx))
	l := linalg.NewVector(m)
	u := linalg.NewVector(m)
	for k := 0; k < dim; k++ {
		is, js, vs = append(is, k), append(js, k), append(vs, 1)
		u[k] = c.AMaxPerMarket
	}
	for τ := 0; τ < h; τ++ {
		row := dim + τ
		for i := 0; i < n; i++ {
			is, js, vs = append(is, row), append(js, τ*n+i), append(vs, 1)
		}
		l[row] = c.AMin
		u[row] = c.AMax
	}
	for τ := 0; τ < h && anchor != nil; τ++ {
		row := dim + h + τ
		for _, i := range anchorIdx {
			is, js, vs = append(is, row), append(js, τ*n+i), append(vs, 1)
		}
		l[row] = c.AMinOnDemand
		u[row] = math.Inf(1)
	}
	return &solver.Problem{
		POp:     &horizonOperator{m: risk, alpha: c.Alpha, kappa: kappa, n: n, h: h},
		Q:       c.buildLinear(in, n, kappa, nil),
		ASparse: linalg.NewCSRFromTriplets(m, dim, is, js, vs),
		L:       l,
		U:       u,
		Block: &solver.MPOStructure{
			N: n, H: h,
			Risk:      risk,
			RiskScale: 2 * c.Alpha,
			ChurnK:    2 * kappa,
			Anchor:    anchor,
		},
	}
}

func (c Config) solveADMM(in *Inputs, n int) solver.Result {
	kappa := c.churnWeight(in, n)
	return solver.SolveADMM(c.buildADMMSparse(in, n, kappa), solver.ADMMSettings{
		MaxIter: c.maxIter(8000), EpsAbs: 1e-6, EpsRel: 1e-6,
	})
}

// CheckFinite returns an error when the executed allocation has a NaN or ±Inf
// entry — what a non-finite input the solver's residual check could only mark
// as not converged (a NaN in M) makes of a plan — so a planner reports a
// failed round instead of sizing servers from it.
func CheckFinite(alloc linalg.Vector) error {
	for i, a := range alloc {
		if !finite(a) {
			return fmt.Errorf("portfolio: non-finite allocation %v for market %d", a, i)
		}
	}
	return nil
}

// ServerCounts converts a fractional allocation into integer server counts
// (§4.2's A_t^i = n_t^i r_i / λ_t inverted). Naively ceiling every market
// wastes most of a large instance per thin allocation, so integerization is
// largest-remainder: floor each market's fractional server need, then add
// whole servers — largest remainder first, smallest instance on ties — until
// the realized capacity covers the allocated demand λ·ΣA. Allocations so
// small they would claim only a sliver of one server (< minFraction) are
// dropped to avoid churning tiny instances, and so are NaN and ±Inf ones.
func ServerCounts(alloc linalg.Vector, lambda float64, capacities []float64, minFraction float64) []int {
	out := make([]int, len(alloc))
	if lambda <= 0 {
		return out
	}
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	var target, have float64
	for i, a := range alloc {
		if a <= 0 {
			continue
		}
		want := a * lambda / capacities[i]
		if !(want >= minFraction) || math.IsInf(want, 1) { // a sliver, NaN or +Inf
			continue
		}
		n := int(math.Floor(want + 1e-9))
		out[i] = n
		have += float64(n) * capacities[i]
		target += a * lambda
		rems = append(rems, rem{i: i, frac: want - float64(n)})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		if capacities[rems[a].i] != capacities[rems[b].i] {
			return capacities[rems[a].i] < capacities[rems[b].i]
		}
		return rems[a].i < rems[b].i
	})
	for _, r := range rems {
		if have >= target-1e-9 {
			return out
		}
		out[r.i]++
		have += capacities[r.i]
	}
	// Remainders exhausted but capacity still short (slivers were dropped):
	// top up with the smallest participating instance.
	if have < target-1e-9 && len(rems) > 0 {
		small := rems[0].i
		for _, r := range rems {
			if capacities[r.i] < capacities[small] {
				small = r.i
			}
		}
		for have < target-1e-9 {
			out[small]++
			have += capacities[small]
		}
	}
	return out
}

// CapacityOf returns the total req/s capacity of integer server counts.
func CapacityOf(counts []int, capacities []float64) float64 {
	var s float64
	for i, n := range counts {
		s += float64(n) * capacities[i]
	}
	return s
}
