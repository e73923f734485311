package solver

import (
	"math"

	"repro/internal/linalg"
)

// ADMMSettings tunes the OSQP-style solver. Zero values select defaults.
type ADMMSettings struct {
	Rho     float64 // step-size / penalty parameter (default 0.1)
	Sigma   float64 // primal regularization (default 1e-6)
	Alpha   float64 // over-relaxation in (0, 2) (default 1.6)
	MaxIter int     // iteration budget (default 4000)
	EpsAbs  float64 // absolute tolerance (default 1e-6)
	EpsRel  float64 // relative tolerance (default 1e-6)
}

func (s ADMMSettings) withDefaults() ADMMSettings {
	if s.Rho <= 0 {
		s.Rho = 0.1
	}
	if s.Sigma <= 0 {
		s.Sigma = 1e-6
	}
	if s.Alpha <= 0 || s.Alpha >= 2 {
		s.Alpha = 1.6
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 4000
	}
	if s.EpsAbs <= 0 {
		s.EpsAbs = 1e-6
	}
	if s.EpsRel <= 0 {
		s.EpsRel = 1e-6
	}
	return s
}

// reducedKKT eliminates the constraint block from the quasi-definite system:
// from the second KKT row, ν = ρ(Ax̃ − z) + y; substituting into the first
// gives the positive definite reduced system
//
//	(P + σI + ρAᵀA)·x̃ = σx − q + Aᵀ(ρz − y).
//
// All matvecs go through the problem's sparse A, so one iteration costs a
// reduced solve plus O(nnz) — never a dense m×n product. One solve owns the
// factorization and its scratch.
type reducedKKT struct {
	fact *linalg.BlockTriDiagFactor
	rhs  linalg.Vector // n
	xt   linalg.Vector // n
	nu   linalg.Vector // m
	t    linalg.Vector // m scratch for ρz − y
}

// step runs one x-update from the iterates (x, z, y), leaving x̃ in k.xt and ν
// in k.nu. It runs once per ADMM iteration and must not allocate.
func (k *reducedKKT) step(p *Problem, sigma, rho float64, x, z, y linalg.Vector) {
	for i := range k.t {
		k.t[i] = rho*z[i] - y[i]
	}
	p.ASparse.MulVecT(k.t, k.rhs)
	for i := range k.rhs {
		k.rhs[i] += sigma*x[i] - p.Q[i]
	}
	k.fact.Solve(k.rhs, k.xt)
	p.ASparse.MulVec(k.xt, k.nu)
	for i := range k.nu {
		k.nu[i] = rho*(k.nu[i]-z[i]) + y[i]
	}
}

// factorBlockKKT assembles and factors the reduced MPO system block-
// tridiagonally. With A = [I; per-period sum rows], AᵀA = I + blockdiag(1·1ᵀ),
// so the reduced matrix has diagonal blocks
//
//	D_τ = RiskScale·Risk + (σ + ρ + ChurnK·dc(τ))·I + ρ·1·1ᵀ
//
// and constant off-diagonal blocks −ChurnK·I. A declared anchor tier adds one
// more aggregate row per period (the Σ over on-demand coordinates), whose
// AᵀA contribution is a second rank-one term ρ·s·sᵀ with s the anchor
// indicator. Factoring costs O(H·N³) and peak memory O(H·N²) — the full dense
// KKT is never materialized.
func factorBlockKKT(p *Problem, sigma, rho float64) (*reducedKKT, error) {
	b := p.Block
	n, h := b.N, b.H
	diag := make([]*linalg.Matrix, h)
	for tau := 0; tau < h; tau++ {
		d := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			row := d.Data[i*n : (i+1)*n]
			risk := b.Risk.Data[i*n : (i+1)*n]
			for j := range row {
				row[j] = b.RiskScale*risk[j] + rho
			}
			if b.Anchor != nil && b.Anchor[i] {
				for j := range row {
					if b.Anchor[j] {
						row[j] += rho
					}
				}
			}
		}
		dc := 2.0
		if tau+1 == h {
			dc = 1
		}
		d.AddDiag(sigma + rho + b.ChurnK*dc)
		diag[tau] = d
	}
	f, err := linalg.FactorBlockTriDiag(diag, -b.ChurnK)
	if err != nil {
		return nil, err
	}
	return &reducedKKT{
		fact: f,
		rhs:  linalg.NewVector(p.N()),
		xt:   linalg.NewVector(p.N()),
		nu:   linalg.NewVector(p.M()),
		t:    linalg.NewVector(p.M()),
	}, nil
}

// SolveADMM solves the QP with the OSQP splitting
//
//	x-update: solve the quasi-definite KKT system
//	          [P+σI  Aᵀ ] [x̃]   [σx − q     ]
//	          [A    −I/ρ] [ν] = [z − y/ρ    ]
//	z-update: clip onto [l, u]
//	y-update: scaled dual ascent,
//
// with over-relaxation α. The problem must declare its MPO block structure
// (Problem.Block): the x-update eliminates ν and solves the reduced positive
// definite system through one block-tridiagonal factorization, computed once
// and reused every iteration. Every solve starts cold from zero iterates and
// returns no warm state.
func SolveADMM(p *Problem, settings ADMMSettings) Result {
	if err := p.Validate(); err != nil {
		return Result{Status: StatusError}
	}
	s := settings.withDefaults()
	n, m := p.N(), p.M()
	fact, err := factorBlockKKT(p, s.Sigma, s.Rho)
	if err != nil {
		return Result{Status: StatusError}
	}

	x := linalg.NewVector(n)
	z := linalg.NewVector(m)
	y := linalg.NewVector(m)
	ax := linalg.NewVector(m)
	aty := linalg.NewVector(n)
	px := linalg.NewVector(n)

	xTilde, nu := fact.xt, fact.nu

	res := Result{Status: StatusMaxIterations}
	for iter := 1; iter <= s.MaxIter; iter++ {
		fact.step(p, s.Sigma, s.Rho, x, z, y)
		// x ← αx̃ + (1−α)x, then the per-row z̃/z/y update.
		for i := range x {
			x[i] = s.Alpha*xTilde[i] + (1-s.Alpha)*x[i]
		}
		for i := range z {
			zTilde := z[i] + (nu[i]-y[i])/s.Rho
			zRelax := s.Alpha*zTilde + (1-s.Alpha)*z[i]
			// z-update: project zRelax + y/ρ onto [l, u].
			v := zRelax + y[i]/s.Rho
			if v < p.L[i] {
				v = p.L[i]
			} else if v > p.U[i] {
				v = p.U[i]
			}
			z[i] = v
			// y-update.
			y[i] += s.Rho * (zRelax - z[i])
		}

		// Check residuals every few iterations to amortize the matvecs.
		if iter%10 != 0 && iter != s.MaxIter {
			continue
		}
		p.ASparse.MulVec(x, ax)
		p.ASparse.MulVecT(y, aty)
		p.POp.Apply(x, px)
		var priRes, duaRes float64
		for i := 0; i < m; i++ {
			if d := math.Abs(ax[i] - z[i]); d > priRes {
				priRes = d
			}
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(px[i] + p.Q[i] + aty[i]); d > duaRes {
				duaRes = d
			}
		}
		epsPri := s.EpsAbs + s.EpsRel*math.Max(ax.NormInf(), z.NormInf())
		epsDua := s.EpsAbs + s.EpsRel*math.Max(px.NormInf(), math.Max(aty.NormInf(), p.Q.NormInf()))
		res.PriRes, res.DuaRes, res.Iterations = priRes, duaRes, iter
		if priRes <= epsPri && duaRes <= epsDua {
			res.Status = StatusSolved
			break
		}
	}
	res.X = x
	res.Objective = p.Objective(x)
	return res
}
