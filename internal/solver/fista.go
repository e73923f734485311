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

// FISTASettings tunes the projected accelerated gradient solver.
type FISTASettings struct {
	MaxIter int     // default 2000
	Tol     float64 // projected-gradient inf-norm tolerance (default 1e-8)
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
	n := p.Dim()
	var sp split
	sp.setup(&ProjectedProblem{P: p}, n)
	l, _ := sp.estimateLipschitz(nil, iters, linalg.NewVector(n), linalg.NewVector(n))
	return l
}

// estimateLipschitz runs power iteration on the problem s is set up for from
// v0 (or a deterministic pseudo-random start when v0 is nil/mismatched) and
// returns the inflated λmax estimate together with the final unit
// eigenvector, so a subsequent solve of a nearby operator can restart from it
// with far fewer matvecs. v and w are its n-long work vectors — v0 may be v
// itself — and the returned eigenvector is v. Each product runs on s's parts.
func (s *split) estimateLipschitz(v0 linalg.Vector, iters int, v, w linalg.Vector) (float64, linalg.Vector) {
	n := s.p.P.Dim()
	if n == 0 {
		return 1, nil
	}
	if iters <= 0 {
		iters = 30
	}
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
	s.v, s.w = v, w
	lambda := 0.0
	for k := 0; k < iters; k++ {
		s.run(taskApply)
		nrm := w.Norm2()
		if nrm == 0 {
			return 1e-12, v // P ≈ 0: any small L works, objective is affine
		}
		lambda = nrm
		copy(v, w)
		v.Scale(1 / nrm)
	}
	return float64(lambda * 1.02), v
}

// ProjectedProblem is a QP over an arbitrary projectable convex set:
// minimize ½xᵀPx + qᵀx subject to x ∈ C.
type ProjectedProblem struct {
	P QuadOperator
	Q linalg.Vector
	C Projector
}

// fit returns v when it is n long and a new zero vector otherwise.
func fit(v linalg.Vector, n int) linalg.Vector {
	if len(v) == n {
		return v
	}
	return linalg.NewVector(n)
}

// SolveFISTA minimizes the projected problem with FISTA (accelerated
// proximal gradient) plus adaptive restart. Termination is on the fixed-point
// residual ‖x − Π_C(x − ∇f(x)/L)‖∞ ≤ tol; a NaN residual (non-finite problem
// data) ends the solve at that check with StatusMaxIterations.
//
// The solve works in the vectors of settings.Warm wherever their length fits
// — the seed iterates in place, the rest as scratch — and hands them on as
// Result.Warm: the incoming state is consumed, and a receding-horizon run of
// warm solves allocates only each Result.X, which is the caller's own.
//
// A large solve of a period operator over a ProductSet runs each iteration's
// per-period work — the products with P, the gradient step, the residual
// check's trial point and the projections — in two parts over contiguous
// period ranges, one on a helper goroutine that exits before SolveFISTA
// returns (see split); the restart dot, the momentum, the extrapolation and
// the residual's max stay on the caller, in order, so every bit is the one
// part's.
func SolveFISTA(p *ProjectedProblem, settings FISTASettings) Result {
	s := settings.withDefaults()
	n := p.P.Dim()
	warm := s.Warm
	st := warm
	if st == nil {
		st = &WarmState{}
	}
	sp := &st.split
	sp.setup(p, n)
	defer sp.stop() // also on a panic: no helper outlives the solve
	warmStarted := false
	var l float64
	var lipVec linalg.Vector
	lipW := fit(st.lipW, n)
	if warm != nil && warm.lip > 0 && len(warm.lipVec) == n {
		// Warm refresh: the dominant eigenvector of the slowly-drifting
		// Hessian is an excellent power-iteration start, so a few matvecs
		// recover (and track) the estimate the cold path needs 30 for.
		l, lipVec = sp.estimateLipschitz(warm.lipVec, 6, warm.lipVec, lipW)
		warmStarted = true
	} else {
		l, lipVec = sp.estimateLipschitz(nil, 30, fit(st.lipVec, n), lipW)
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

	// x is the current iterate: the warm seed in place, or a zero vector.
	x, xPrev := fit(st.x, n), fit(st.xPrev, n)
	tk := 1.0
	carried := false // the warm momentum pair seeds xPrev and tk
	if warm != nil && len(warm.x) == n {
		warmStarted = true
		if len(warm.xPrev) == n && warm.tk >= 1 {
			carried, tk = true, warm.tk
		}
	}
	p.C.Project(x)
	yv := fit(st.yv, n) // extrapolated point
	copy(yv, x)
	if !carried {
		copy(xPrev, x)
	} else {
		// Re-extrapolate from the warm momentum pair; the adaptive restart
		// below resets it on the first uphill step, so a stale direction
		// costs at most one iteration.
		p.C.Project(xPrev)
		beta := (tk - 1) / tk
		for i := range yv {
			yv[i] = x[i] + float64(beta*(x[i]-xPrev[i]))
		}
	}
	grad, tmp := fit(st.grad, n), fit(st.tmp, n)
	sp.x, sp.xPrev, sp.yv, sp.grad, sp.tmp, sp.step = x, xPrev, yv, grad, tmp, step

	res := Result{Status: StatusMaxIterations}
	for iter := 1; iter <= s.MaxIter; iter++ {
		// Projected gradient step at the extrapolated point.
		sp.run(taskStep)

		// Adaptive restart: if momentum points uphill, reset it.
		var dot float64
		for i := range x {
			dot += float64((yv[i] - x[i]) * (x[i] - xPrev[i]))
		}
		if traceDot != nil {
			traceDot(dot)
		}
		if dot > 0 {
			tk = 1
		}
		tNext := 0.5 * (1 + math.Sqrt(1+float64(4*tk*tk)))
		momentum := (tk - 1) / tNext
		for i := range yv {
			yv[i] = x[i] + float64(momentum*(x[i]-xPrev[i]))
		}
		tk = tNext

		// Fixed-point residual at x (checked periodically).
		if iter%5 == 0 || iter == s.MaxIter {
			sp.run(taskCheck)
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
	res.X = x.Clone()
	// Every exit from the loop follows a residual check, so grad holds P·x.
	res.Objective = float64(0.5*x.Dot(grad)) + p.Q.Dot(x)
	res.WarmStarted = warmStarted
	if counted {
		res.Projection = counter.Stats().since(statsBefore)
	}
	st.x, st.xPrev, st.tk = x, xPrev, tk
	st.lip, st.lipVec = l, lipVec
	st.yv, st.grad, st.tmp, st.lipW = yv, grad, tmp, lipW
	res.Warm = st
	return res
}
