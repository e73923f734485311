// Package portfolio implements SpotWeb's primary contribution: multi-period
// portfolio optimization (MPO) for transient-server selection (§4.1–4.2).
//
// Each interval the optimizer chooses, for every step τ of a planning
// horizon H, the fraction A_τ^i of the predicted workload routed to each
// market i, minimizing
//
//	Σ_τ [ provisioning cost (Eq. 3) + SLA-violation cost (Eq. 4)
//	      + α·A_τᵀM A_τ (Eq. 5) + κ‖A_τ − A_{τ−1}‖² (churn) ]
//
// subject to A_τ ≥ 0, AMin ≤ Σ_i A_τ^i ≤ AMax, A_τ^i ≤ aMax (constraints
// 7–10), with E[Return] = 0 so the program is a pure cost minimization — a
// convex QP. Only the first interval of the plan is executed (receding
// horizon), limiting prediction-error propagation exactly as §4.1 argues.
// Single-period optimization (SPO, the ExoSphere baseline) is the H = 1
// special case.
package portfolio

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// SolverKind selects the QP backend.
type SolverKind int

const (
	// SolverFISTA uses the structure-exploiting projected-gradient solver
	// (default; scales to hundreds of markets).
	SolverFISTA SolverKind = iota
	// SolverADMM uses the OSQP-style solver over the structured MPO program
	// (block-tridiagonal KKT factor). No binary selects it: it is the
	// benchmark's cold-solve probe and FISTA's cross-check in tests.
	SolverADMM
)

// KKTPath and KKTSparse are named by bench/plan.go; removed with ROADMAP
// 1(a). See Config.KKT.
type KKTPath int

const KKTSparse KKTPath = 0

// Config holds the optimizer parameters. Zero values take the paper's §6
// defaults where one exists.
type Config struct {
	// Alpha is the risk-aversion parameter (paper default 5).
	Alpha float64
	// PenaltyP is the per-request SLO violation penalty in $ (paper: 0.02,
	// twice the worst per-request cost so dropping is never profitable).
	PenaltyP float64
	// LongRequestFrac is L, the fraction of long-running requests that
	// cannot be migrated within the warning period (paper testbed: 0).
	LongRequestFrac float64
	// AMin is the minimum total fractional allocation (≥ 1 serves all
	// predicted load; paper allows slight under-provisioning if < 1).
	AMin float64
	// AMax caps total over-provisioning (e.g. 1.5 = 150% of predicted).
	AMax float64
	// AMaxPerMarket is aMax, the per-market allocation cap (1 disables
	// forced diversification and lets the optimizer choose).
	AMaxPerMarket float64
	// AMinOnDemand is the sentinel HA anchor floor: the minimum total
	// allocation share that must sit on non-revocable (on-demand) markets in
	// every period, priced by the optimizer against the on-demand premium.
	// Zero (the default) disables the constraint entirely — the program, its
	// KKT layout and its floating-point behaviour are then identical to the
	// anchor-free formulation. Requires Inputs.OnDemand when positive.
	AMinOnDemand float64
	// Horizon is H, the look-ahead length in intervals (H = 1 ⇒ SPO).
	Horizon int
	// ChurnKappa is the quadratic switching-cost weight coupling adjacent
	// periods (the "transaction cost" of multi-period trading; 0 disables).
	// It is dimensionless: the effective weight is ChurnKappa × (mean
	// interval spend λ·C̄), so ChurnKappa ≈ 1 prices a full portfolio switch
	// at roughly one interval of rental — the scale of the instance-hours
	// wasted under hourly billing.
	ChurnKappa float64
	// Solver selects the backend.
	Solver SolverKind
	// MaxIter overrides the solver's iteration budget (0 keeps the backend
	// default: 4000 for FISTA, 8000 for ADMM). Mostly a testing/benchmark
	// knob — tiny budgets force non-converged solves deterministically.
	MaxIter int
	// DisableWarmStart cold-starts every receding-horizon solve. The zero
	// value keeps warm starting ON: each Planner round seeds the solver with
	// the previous round's iterates shifted one period (plus the cached KKT
	// factorization / Lipschitz estimate), which cuts steady-state solver
	// iterations severalfold without changing what the solver converges to
	// (first-interval allocations agree within solver tolerance). Disable it
	// to reproduce strictly independent per-round solves.
	DisableWarmStart bool
	// Parallelism and KKT are ignored — one solve is serial and ADMM has one
	// KKT engine. Named by bench/plan.go; removed with ROADMAP 1(a).
	Parallelism int
	KKT         KKTPath
}

// WithDefaults fills unset fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = 5
	}
	if c.PenaltyP <= 0 {
		c.PenaltyP = 0.02
	}
	if c.AMin <= 0 {
		c.AMin = 1.0
	}
	if c.AMax <= 0 {
		c.AMax = 1.5
	}
	if c.AMaxPerMarket <= 0 {
		c.AMaxPerMarket = 1.0
	}
	if c.Horizon <= 0 {
		c.Horizon = 4
	}
	return c
}

// RiskApplier abstracts the risk matrix M so structured representations —
// sparse (linalg.CSR) or low-rank-plus-diagonal (linalg.FactorModel) — can
// back the quadratic risk term without materializing a dense N×N matrix.
// *linalg.Matrix satisfies it too.
type RiskApplier = linalg.MatVec

// Inputs carries the per-solve data: predictions over the horizon plus the
// current risk estimate.
type Inputs struct {
	// Lambda[τ] is the predicted peak request rate for step τ (req/s); when
	// the workload predictor applies CI padding this is already the upper
	// bound (§4.3).
	Lambda []float64
	// PerReqCost[τ][i] is C_τ^i = price/capacity for market i at step τ.
	PerReqCost [][]float64
	// FailProb[τ][i] is the predicted revocation probability.
	FailProb [][]float64
	// Risk is the covariance matrix M of revocation dynamics (N×N). It is
	// required by the ADMM backend; the FISTA backend prefers RiskOp when
	// set.
	Risk *linalg.Matrix
	// RiskOp optionally supplies M as a structured operator (sparse or
	// factor model) for the FISTA backend; Risk may then be nil.
	RiskOp RiskApplier
	// RiskDim must be set to N when Risk is nil (RiskOp carries no shape).
	RiskDim int
	// OnDemand[i] marks market i as non-revocable (on-demand) — the anchor
	// asset class. Only consulted when Config.AMinOnDemand > 0; nil is fine
	// otherwise.
	OnDemand []bool
	// PrevAlloc is A_{t−1}, used by the churn term; nil means zero.
	PrevAlloc linalg.Vector
	// ShortfallMAE is the tracked mean-absolute prediction error used to
	// charge the a-priori capacity-shortage cost of Eq. 4 (in req/s).
	ShortfallMAE float64
}

// Validate checks shape consistency against the horizon and market count.
func (in *Inputs) Validate(h int) (int, error) {
	if len(in.Lambda) != h {
		return 0, fmt.Errorf("portfolio: Lambda has %d steps, want %d", len(in.Lambda), h)
	}
	if len(in.PerReqCost) != h || len(in.FailProb) != h {
		return 0, fmt.Errorf("portfolio: cost/fail series must have %d steps", h)
	}
	var n int
	switch {
	case in.Risk != nil:
		if in.Risk.Rows != in.Risk.Cols {
			return 0, fmt.Errorf("portfolio: risk matrix non-square")
		}
		n = in.Risk.Rows
	case in.RiskOp != nil:
		if in.RiskDim <= 0 {
			return 0, fmt.Errorf("portfolio: RiskDim required with RiskOp")
		}
		n = in.RiskDim
	default:
		return 0, fmt.Errorf("portfolio: risk matrix missing")
	}
	for τ := 0; τ < h; τ++ {
		if len(in.PerReqCost[τ]) != n || len(in.FailProb[τ]) != n {
			return 0, fmt.Errorf("portfolio: step %d has wrong market count", τ)
		}
		if in.Lambda[τ] < 0 || !finite(in.Lambda[τ]) {
			return 0, fmt.Errorf("portfolio: bad lambda at step %d: %v", τ, in.Lambda[τ])
		}
		// A NaN or Inf coefficient would run the solver to a NaN plan; Risk is
		// n² entries and is left to the solver's residual check instead.
		for i := 0; i < n; i++ {
			if !finite(in.PerReqCost[τ][i]) || !finite(in.FailProb[τ][i]) {
				return 0, fmt.Errorf("portfolio: non-finite cost %v or failure probability %v for market %d at step %d",
					in.PerReqCost[τ][i], in.FailProb[τ][i], i, τ)
			}
		}
	}
	if in.PrevAlloc != nil && len(in.PrevAlloc) != n {
		return 0, fmt.Errorf("portfolio: PrevAlloc has %d markets, want %d", len(in.PrevAlloc), n)
	}
	if in.OnDemand != nil && len(in.OnDemand) != n {
		return 0, fmt.Errorf("portfolio: OnDemand has %d markets, want %d", len(in.OnDemand), n)
	}
	return n, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// anchorIdx returns the indices of the on-demand (anchor) markets, or nil
// when none are marked.
func (in *Inputs) anchorIdx() []int {
	var idx []int
	for i, od := range in.OnDemand {
		if od {
			idx = append(idx, i)
		}
	}
	return idx
}

// linearCost returns the linear objective coefficient for market i at step τ:
// the provisioning cost per unit of allocation plus the Eq. 4 SLA terms.
func (c Config) linearCost(in *Inputs, τ, i int) float64 {
	lam := in.Lambda[τ]
	cost := lam * in.PerReqCost[τ][i]
	// Eq. 4: P·A·(f λ L + shortfall); shortfall charged a priori via MAE.
	cost += c.PenaltyP * (in.FailProb[τ][i]*lam*c.LongRequestFrac + in.ShortfallMAE)
	return cost
}

// ProvisioningCost evaluates Eq. 3 for a single period's allocation.
func (c Config) ProvisioningCost(alloc linalg.Vector, lambda float64, perReqCost []float64) float64 {
	var s float64
	for i, a := range alloc {
		s += a * lambda * perReqCost[i]
	}
	return s
}

// SLACost evaluates Eq. 4 for a single period a posteriori: given the actual
// arrival rate and the rate that was provisioned for.
func (c Config) SLACost(alloc linalg.Vector, failProb []float64, actual, predicted float64) float64 {
	var s float64
	short := actual - predicted
	for i, a := range alloc {
		if short > 0 {
			s += c.PenaltyP * a * (failProb[i]*actual*c.LongRequestFrac + short)
		} else {
			s += c.PenaltyP * a * failProb[i] * actual * c.LongRequestFrac
		}
	}
	return s
}

// RiskCost evaluates Eq. 5, α·AᵀMA.
func (c Config) RiskCost(alloc linalg.Vector, m *linalg.Matrix) float64 {
	return c.Alpha * m.QuadForm(alloc)
}
