package solver

import (
	"math"

	"repro/internal/linalg"
)

// Projector is any set with an in-place Euclidean projection. BoxBand and
// ProductSet implement it.
type Projector interface {
	Project(x linalg.Vector)
}

// QuadOperator abstracts the Hessian so that structured problems (e.g. the
// block-diagonal horizon-stacked risk matrix) can avoid materializing a dense
// n×n matrix.
type QuadOperator interface {
	// Apply writes P·x into dst.
	Apply(x, dst linalg.Vector)
	// Dim returns n.
	Dim() int
}

// DenseOperator adapts a dense matrix to QuadOperator.
type DenseOperator struct{ M *linalg.Matrix }

// Apply implements QuadOperator.
func (d DenseOperator) Apply(x, dst linalg.Vector) { d.M.MulVec(x, dst) }

// Dim implements QuadOperator.
func (d DenseOperator) Dim() int { return d.M.Rows }

// BlockDiagOperator applies the same (or per-block) square blocks along the
// diagonal: the horizon-stacked risk Hessian is H copies of 2αM.
type BlockDiagOperator struct {
	Blocks []*linalg.Matrix // one per block, each square
}

// Apply implements QuadOperator.
func (b BlockDiagOperator) Apply(x, dst linalg.Vector) {
	off := 0
	for _, m := range b.Blocks {
		n := m.Rows
		m.MulVec(x[off:off+n], dst[off:off+n])
		off += n
	}
}

// Dim implements QuadOperator.
func (b BlockDiagOperator) Dim() int {
	n := 0
	for _, m := range b.Blocks {
		n += m.Rows
	}
	return n
}

// FISTASettings tunes the projected accelerated gradient solver.
type FISTASettings struct {
	MaxIter int     // default 2000
	Tol     float64 // projected-gradient inf-norm tolerance (default 1e-8)
	// LipschitzBound overrides the power-iteration estimate of λmax(P) when
	// positive.
	LipschitzBound float64
	// Warm, when non-nil, seeds the solve from a previous Result.Warm: the
	// iterate/momentum pair starts from the stored (optionally
	// horizon-shifted) values and the Lipschitz estimate restarts power
	// iteration from the cached dominant eigenvector — a handful of matvecs
	// instead of the cold 30. Termination still uses the full fixed-point
	// residual, so a warm solve meets the same tolerance as a cold one.
	Warm *WarmState
}

func (s FISTASettings) withDefaults() FISTASettings {
	if s.MaxIter <= 0 {
		s.MaxIter = 2000
	}
	if s.Tol <= 0 {
		s.Tol = 1e-8
	}
	return s
}

// EstimateLipschitz estimates λmax(P) by power iteration (shifted to remain
// valid for PSD operators), returning a slightly inflated value so that 1/L
// is a safe step size.
func EstimateLipschitz(p QuadOperator, iters int) float64 {
	l, _ := estimateLipschitz(p, nil, iters)
	return l
}

// estimateLipschitz runs power iteration from v0 (or a deterministic
// pseudo-random start when v0 is nil/mismatched) and returns the inflated
// λmax estimate together with the final unit eigenvector, so a subsequent
// solve of a nearby operator can restart from it with far fewer matvecs.
func estimateLipschitz(p QuadOperator, v0 linalg.Vector, iters int) (float64, linalg.Vector) {
	n := p.Dim()
	if n == 0 {
		return 1, nil
	}
	if iters <= 0 {
		iters = 30
	}
	v := linalg.NewVector(n)
	if len(v0) == n && v0.Norm2() > 0 {
		copy(v, v0)
	} else {
		// Deterministic pseudo-random start so solves are reproducible.
		seed := uint64(0x9e3779b97f4a7c15)
		for i := range v {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			v[i] = float64(seed%1000)/500.0 - 1.0
		}
	}
	if v.Norm2() == 0 {
		v[0] = 1
	}
	v.Scale(1 / v.Norm2())
	w := linalg.NewVector(n)
	lambda := 0.0
	for k := 0; k < iters; k++ {
		p.Apply(v, w)
		nrm := w.Norm2()
		if nrm == 0 {
			return 1e-12, v // P ≈ 0: any small L works, objective is affine
		}
		lambda = nrm
		copy(v, w)
		v.Scale(1 / nrm)
	}
	return lambda * 1.02, v
}

// ProjectedProblem is a QP over an arbitrary projectable convex set:
// minimize ½xᵀPx + qᵀx subject to x ∈ C.
type ProjectedProblem struct {
	P QuadOperator
	Q linalg.Vector
	C Projector
}

// Objective evaluates the quadratic objective at x.
func (p *ProjectedProblem) Objective(x linalg.Vector) float64 {
	tmp := linalg.NewVector(len(x))
	p.P.Apply(x, tmp)
	return 0.5*x.Dot(tmp) + p.Q.Dot(x)
}

// SolveFISTA minimizes the projected problem with FISTA (accelerated
// proximal gradient) plus adaptive restart. The returned Result has Y == nil
// (no explicit duals). Termination is on the fixed-point residual
// ‖x − Π_C(x − ∇f(x)/L)‖∞ ≤ tol; a NaN residual (non-finite problem data)
// ends the solve at that check with StatusMaxIterations.
func SolveFISTA(p *ProjectedProblem, settings FISTASettings) Result {
	s := settings.withDefaults()
	n := p.P.Dim()
	warmStarted := false
	l := s.LipschitzBound
	var lipVec linalg.Vector
	if l <= 0 {
		if s.Warm != nil && s.Warm.lip > 0 && len(s.Warm.lipVec) == n {
			// Warm refresh: the dominant eigenvector of the slowly-drifting
			// Hessian is an excellent power-iteration start, so a few matvecs
			// recover (and track) the estimate the cold path needs 30 for.
			l, lipVec = estimateLipschitz(p.P, s.Warm.lipVec, 6)
			warmStarted = true
		} else {
			l, lipVec = estimateLipschitz(p.P, nil, 30)
		}
	}
	if l < 1e-12 {
		l = 1e-12
	}
	step := 1 / l

	// BoxBand and ProductSet count their projections' passes over their
	// lifetime; the solve reports its own share.
	counter, counted := p.C.(interface{ Stats() ProjectionStats })
	var statsBefore ProjectionStats
	if counted {
		statsBefore = counter.Stats()
	}

	x := linalg.NewVector(n) // current iterate
	tk := 1.0
	var xPrev linalg.Vector
	if s.Warm != nil && len(s.Warm.x) == n {
		copy(x, s.Warm.x)
		warmStarted = true
		if len(s.Warm.xPrev) == n && s.Warm.tk >= 1 {
			xPrev = s.Warm.xPrev.Clone()
			tk = s.Warm.tk
		}
	}
	p.C.Project(x)
	yv := x.Clone() // extrapolated point
	if xPrev == nil {
		xPrev = x.Clone()
	} else {
		// Re-extrapolate from the warm momentum pair; the adaptive restart
		// below resets it on the first uphill step, so a stale direction
		// costs at most one iteration.
		p.C.Project(xPrev)
		beta := (tk - 1) / tk
		for i := range yv {
			yv[i] = x[i] + beta*(x[i]-xPrev[i])
		}
	}
	grad := linalg.NewVector(n)
	tmp := linalg.NewVector(n)

	res := Result{Status: StatusMaxIterations}
	for iter := 1; iter <= s.MaxIter; iter++ {
		// Gradient step at the extrapolated point.
		p.P.Apply(yv, grad)
		for i := range x {
			xPrev[i] = x[i]
			x[i] = yv[i] - step*(grad[i]+p.Q[i])
		}
		p.C.Project(x)

		// Adaptive restart: if momentum points uphill, reset it.
		var dot float64
		for i := range x {
			dot += (yv[i] - x[i]) * (x[i] - xPrev[i])
		}
		if dot > 0 {
			tk = 1
		}
		tNext := 0.5 * (1 + math.Sqrt(1+4*tk*tk))
		momentum := (tk - 1) / tNext
		for i := range yv {
			yv[i] = x[i] + momentum*(x[i]-xPrev[i])
		}
		tk = tNext

		// Fixed-point residual at x (checked periodically).
		if iter%5 == 0 || iter == s.MaxIter {
			p.P.Apply(x, grad)
			for i := range tmp {
				tmp[i] = x[i] - step*(grad[i]+p.Q[i])
			}
			p.C.Project(tmp)
			var fp float64
			for i := range tmp {
				if d := math.Abs(tmp[i] - x[i]); d > fp || math.IsNaN(d) {
					fp = d // a NaN sticks: no later d compares above it
				}
			}
			res.PriRes, res.Iterations = fp, iter
			if fp <= s.Tol {
				res.Status = StatusSolved
				break
			}
			if math.IsNaN(fp) {
				break // non-finite problem data: not converged, and never will be
			}
		}
	}
	res.X = x
	res.Objective = p.Objective(x)
	res.WarmStarted = warmStarted
	if counted {
		res.Projection = counter.Stats().since(statsBefore)
	}
	if lipVec == nil && s.Warm != nil {
		lipVec = s.Warm.lipVec // LipschitzBound override: keep any cached vector
	}
	res.Warm = &WarmState{
		x: x.Clone(), xPrev: xPrev.Clone(), tk: tk,
		lip: l, lipVec: lipVec,
	}
	return res
}
