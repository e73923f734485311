// Package solver implements the convex quadratic-programming substrate that
// replaces the paper's CVXPY + SCS stack. Two solvers are provided:
//
//   - FISTA: an accelerated projected-gradient solver for QPs whose feasible
//     set admits a fast exact projection. The SpotWeb portfolio program is a
//     product of per-period "box ∩ budget-band" sets, whose projection is
//     computed by bisection in O(n log 1/ε) per period, which is what makes
//     the optimizer scale to hundreds of markets (paper Fig. 7(b)). Every
//     binary plans with it.
//   - ADMM: an OSQP-style operator-splitting solver for the horizon-stacked
//     MPO program  minimize ½xᵀPx + qᵀx  subject to  l ≤ Ax ≤ u,  built on a
//     block-tridiagonal factorization of the reduced KKT system. It always
//     solves cold: it is the benchmark's cold-solve probe and FISTA's
//     cross-check in tests.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Status reports how a solve ended.
type Status int

const (
	// StatusSolved means the termination tolerances were met.
	StatusSolved Status = iota
	// StatusMaxIterations means the iteration budget ran out; the returned
	// point is the best iterate and is usually still usable.
	StatusMaxIterations
	// StatusError means the problem was malformed or a factorization failed.
	StatusError
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSolved:
		return "solved"
	case StatusMaxIterations:
		return "max_iterations"
	default:
		return "error"
	}
}

// Problem is the QP  minimize ½xᵀPx + qᵀx  subject to  l ≤ Ax ≤ u.
// P must be symmetric positive semidefinite. Equality constraints are
// expressed with l[i] == u[i]; one-sided constraints with ±Inf bounds.
//
// The problem is carried in structured form only — a matrix-free Hessian, a
// CSR constraint matrix and the Block declaration of their layout — so the
// horizon-stacked MPO program (block-diagonal risk, tridiagonal churn
// coupling, identity-plus-sum-rows constraints) never materializes an
// O((nh)²) dense matrix.
type Problem struct {
	// POp is the Hessian as a matrix-free operator (n×n, symmetric PSD).
	POp QuadOperator
	Q   linalg.Vector // n
	// ASparse is A (m×n) in compressed-sparse-row form: the solver's Ax / Aᵀy
	// matvecs cost O(nnz).
	ASparse *linalg.CSR
	L       linalg.Vector // m, may contain -Inf
	U       linalg.Vector // m, may contain +Inf
	// Block declares the MPO horizon-block structure of (P, A) that
	// SolveADMM's block-tridiagonal KKT factorization is assembled from.
	Block *MPOStructure
}

// MPOStructure declares the horizon-block structure of an MPO QP: the
// decision vector stacks H period blocks of N variables; the Hessian is
// block-tridiagonal with diagonal blocks RiskScale·Risk + ChurnK·dc(τ)·I
// (dc(τ) = 2 on every period that has a successor, 1 on the terminal one)
// and constant off-diagonal blocks −ChurnK·I; the constraint matrix stacks
// the N·H identity (per-variable box rows) over H per-period sum rows.
//
// SolveADMM uses the declaration to eliminate the box rows from the
// quasi-definite KKT system and factor the reduced matrix
//
//	K = P + σI + ρAᵀA = P + (σ+ρ)I + ρ·blockdiag(1·1ᵀ)
//
// block-tridiagonally: O(H·N³) factor and O(H·N²) per-iteration solve
// instead of the dense O((NH+H)³) / O((NH+H)²).
type MPOStructure struct {
	N, H int
	// Risk is the per-period risk matrix M (N×N dense, symmetric PSD).
	Risk *linalg.Matrix
	// RiskScale multiplies Risk inside each diagonal Hessian block (2α).
	RiskScale float64
	// ChurnK is twice the churn weight (2κ); zero decouples the periods.
	ChurnK float64
	// Anchor, when non-nil (length N), declares one extra aggregate row per
	// period summing the marked coordinates — the non-revocable anchor-tier
	// floor. The constraint matrix then stacks N·H box rows, H sum rows and
	// H anchor rows, and the reduced KKT diagonal blocks gain a second
	// rank-one term ρ·s·sᵀ with s the anchor indicator.
	Anchor []bool
}

// Validate checks dimensional consistency and bound sanity.
func (p *Problem) Validate() error {
	if p.POp == nil {
		return errors.New("solver: nil P")
	}
	if p.ASparse == nil {
		return errors.New("solver: nil A")
	}
	b := p.Block
	if b == nil {
		return errors.New("solver: no Block structure declared")
	}
	n := len(p.Q)
	if p.POp.Dim() != n {
		return fmt.Errorf("solver: P operator has dim %d, want %d", p.POp.Dim(), n)
	}
	if p.ASparse.Cols != n {
		return fmt.Errorf("solver: A has %d cols, want %d", p.ASparse.Cols, n)
	}
	m := p.M()
	if len(p.L) != m || len(p.U) != m {
		return fmt.Errorf("solver: bounds have lengths %d/%d, want %d", len(p.L), len(p.U), m)
	}
	for i := 0; i < m; i++ {
		if p.L[i] > p.U[i] {
			return fmt.Errorf("solver: infeasible bounds at row %d: l=%v > u=%v", i, p.L[i], p.U[i])
		}
		if math.IsNaN(p.L[i]) || math.IsNaN(p.U[i]) {
			return fmt.Errorf("solver: NaN bound at row %d", i)
		}
	}
	if b.N <= 0 || b.H <= 0 || b.N*b.H != n {
		return fmt.Errorf("solver: Block is %d×%d periods, want %d stacked variables", b.N, b.H, n)
	}
	wantRows := n + b.H
	if b.Anchor != nil {
		if len(b.Anchor) != b.N {
			return fmt.Errorf("solver: Block anchor has %d entries, want %d", len(b.Anchor), b.N)
		}
		wantRows += b.H
	}
	if m != wantRows {
		return fmt.Errorf("solver: Block layout wants %d constraint rows, A has %d", wantRows, m)
	}
	if b.Risk == nil || b.Risk.Rows != b.N || b.Risk.Cols != b.N {
		return errors.New("solver: Block risk matrix missing or mis-shaped")
	}
	return nil
}

// N returns the number of decision variables.
func (p *Problem) N() int { return len(p.Q) }

// M returns the number of constraint rows.
func (p *Problem) M() int { return p.ASparse.Rows }

// Objective evaluates ½xᵀPx + qᵀx.
func (p *Problem) Objective(x linalg.Vector) float64 {
	px := linalg.NewVector(len(x))
	p.POp.Apply(x, px)
	return 0.5*x.Dot(px) + p.Q.Dot(x)
}

// Result carries a solver's output.
type Result struct {
	Status     Status
	X          linalg.Vector // primal solution
	Objective  float64
	Iterations int
	PriRes     float64 // final primal residual (inf-norm)
	DuaRes     float64 // final dual residual (inf-norm)
	// Warm is the FISTA state to seed a subsequent solve of a nearby
	// problem with (see WarmState). Nil on error results and for ADMM, which
	// always solves cold.
	Warm *WarmState
	// WarmStarted reports whether this solve was seeded from a prior
	// WarmState (iterates or Lipschitz cache).
	WarmStarted bool
	// Projection counts the solve's bisected projections, their real passes
	// and grid jumps (FISTA over a BoxBand or ProductSet; zero otherwise).
	Projection ProjectionStats
}
