package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// singlePeriodQP is the H = 1 structured problem min ½xᵀMx + qᵀx over the box
// [lo, hi] and the band sumLo ≤ Σx ≤ sumHi.
func singlePeriodQP(m *linalg.Matrix, q, lo, hi linalg.Vector, sumLo, sumHi float64) (*Problem, *ProjectedProblem) {
	return structuredQP(m, 1, 0, 1, q, mpoShape{lo: lo, hi: hi, sumLo: sumLo, sumHi: sumHi})
}

// boxQP builds min ½‖x − c‖² s.t. 0 ≤ x ≤ 1 (the band row left wide open),
// whose solution is clip(c, 0, 1).
func boxQP(c linalg.Vector) *Problem {
	n := len(c)
	hi := linalg.NewVector(n)
	hi.Fill(1)
	p, _ := singlePeriodQP(linalg.Identity(n), c.Clone().Scale(-1), linalg.NewVector(n), hi, math.Inf(-1), math.Inf(1))
	return p
}

func TestADMMBoxQP(t *testing.T) {
	c := linalg.Vector{-0.5, 0.25, 2.0}
	res := SolveADMM(boxQP(c), ADMMSettings{})
	if res.Status != StatusSolved {
		t.Fatalf("status %v", res.Status)
	}
	want := linalg.Vector{0, 0.25, 1}
	if !vecsEqual(res.X, want, 1e-4) {
		t.Fatalf("x = %v, want %v", res.X, want)
	}
}

func TestADMMEqualityConstraint(t *testing.T) {
	// min ½(x₀²+x₁²) s.t. x₀+x₁ = 1 (box rows free)  →  x = (0.5, 0.5).
	free := linalg.Vector{math.Inf(1), math.Inf(1)}
	p, _ := singlePeriodQP(linalg.Identity(2), linalg.NewVector(2), free.Clone().Scale(-1), free, 1, 1)
	res := SolveADMM(p, ADMMSettings{})
	if res.Status != StatusSolved {
		t.Fatalf("status %v", res.Status)
	}
	if !vecsEqual(res.X, linalg.Vector{0.5, 0.5}, 1e-4) {
		t.Fatalf("x = %v", res.X)
	}
	if math.Abs(res.Objective-0.25) > 1e-3 {
		t.Fatalf("obj = %v, want 0.25", res.Objective)
	}
}

func TestADMMOneSidedBounds(t *testing.T) {
	// min ½x² − 3x s.t. x ≤ 1 (lower bound −Inf, band row free) → x = 1.
	p, _ := singlePeriodQP(linalg.Identity(1), linalg.Vector{-3},
		linalg.Vector{math.Inf(-1)}, linalg.Vector{1}, math.Inf(-1), math.Inf(1))
	res := SolveADMM(p, ADMMSettings{})
	if res.Status != StatusSolved || math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("res = %+v", res)
	}
}

func TestADMMValidationErrors(t *testing.T) {
	p := boxQP(linalg.Vector{0, 0})
	p.Q = linalg.NewVector(3)
	if p.Validate() == nil {
		t.Fatal("expected dimension error")
	}
	if res := SolveADMM(p, ADMMSettings{}); res.Status != StatusError {
		t.Fatalf("status = %v, want error", res.Status)
	}
	bad := boxQP(linalg.Vector{0})
	bad.L[0], bad.U[0] = 1, 0
	if bad.Validate() == nil {
		t.Fatal("expected crossing-bounds error")
	}
	var nilP Problem
	if nilP.Validate() == nil {
		t.Fatal("expected nil P/A error")
	}
	nan := boxQP(linalg.Vector{0})
	nan.L[0] = math.NaN()
	if nan.Validate() == nil {
		t.Fatal("expected NaN bound error")
	}
}

func TestProblemHelpers(t *testing.T) {
	p := boxQP(linalg.Vector{0.5, 0.5})
	if p.N() != 2 || p.M() != 3 { // two box rows and the band row
		t.Fatalf("N/M = %d/%d", p.N(), p.M())
	}
	x := linalg.Vector{2, 0}
	if inf := p.PrimalInfeasibility(x); math.Abs(inf-1) > 1e-12 {
		t.Fatalf("infeasibility = %v, want 1", inf)
	}
	g := linalg.NewVector(2)
	p.Gradient(x, g)
	if math.Abs(g[0]-1.5) > 1e-12 { // x₀ − c₀ = 2 − 0.5
		t.Fatalf("gradient = %v", g)
	}
}

func TestFISTABoxQP(t *testing.T) {
	c := linalg.Vector{-0.5, 0.25, 2.0}
	n := len(c)
	pp := &ProjectedProblem{
		P: DenseOperator{M: linalg.Identity(n)},
		Q: c.Clone().Scale(-1),
		C: NewBoxBand(linalg.NewVector(n), linalg.Vector{1, 1, 1}, math.Inf(-1), math.Inf(1)),
	}
	res := SolveFISTA(pp, FISTASettings{})
	if res.Status != StatusSolved {
		t.Fatalf("status %v after %d iters", res.Status, res.Iterations)
	}
	if !vecsEqual(res.X, linalg.Vector{0, 0.25, 1}, 1e-6) {
		t.Fatalf("x = %v", res.X)
	}
}

func TestFISTALinearObjectiveOnSimplex(t *testing.T) {
	// min qᵀx over the simplex Σx = 1, x ≥ 0: puts all mass on argmin q.
	q := linalg.Vector{3, 1, 2}
	pp := &ProjectedProblem{
		P: DenseOperator{M: linalg.NewMatrix(3, 3)}, // zero quadratic
		Q: q,
		C: NewBoxBand(linalg.NewVector(3), linalg.Vector{1, 1, 1}, 1, 1),
	}
	res := SolveFISTA(pp, FISTASettings{MaxIter: 20000, LipschitzBound: 1})
	if math.Abs(res.X[1]-1) > 1e-4 || res.X[0] > 1e-4 || res.X[2] > 1e-4 {
		t.Fatalf("x = %v, want e₂", res.X)
	}
}

// A NaN anywhere in the problem data makes every residual NaN, which the
// "larger than the running maximum" test used to skip: the solve returned a
// NaN iterate with StatusSolved at the first residual check.
func TestFISTANaNResidualIsNotConverged(t *testing.T) {
	for name, poison := range map[string]func(pp *ProjectedProblem){
		"nan-in-q": func(pp *ProjectedProblem) { pp.Q[1] = math.NaN() },
		"nan-in-p": func(pp *ProjectedProblem) { pp.P.(DenseOperator).M.Set(0, 2, math.NaN()) },
	} {
		pp := &ProjectedProblem{
			P: DenseOperator{M: linalg.Identity(3)},
			Q: linalg.Vector{3, 1, 2},
			C: NewBoxBand(linalg.NewVector(3), linalg.Vector{1, 1, 1}, 1, 1),
		}
		poison(pp)
		res := SolveFISTA(pp, FISTASettings{MaxIter: 400})
		if res.Status != StatusMaxIterations || !math.IsNaN(res.PriRes) {
			t.Fatalf("%s: status %v, residual %v; want max_iterations with a NaN residual", name, res.Status, res.PriRes)
		}
		if res.Iterations != 5 {
			t.Fatalf("%s: ran %d iterations; a NaN residual should end the solve at the first check", name, res.Iterations)
		}
	}
}

// portfolioLikeQP builds a random single-period SpotWeb-shaped program: n
// markets, cost vector q > 0, SPD risk P, allocation set {0 ≤ x ≤ cap,
// 1 ≤ Σx ≤ 1.4} — as the structured Problem and as the ProjectedProblem.
func portfolioLikeQP(rng *rand.Rand, n int) (*Problem, *ProjectedProblem) {
	m := linalg.NewMatrix(n+2, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 0.3
	}
	p := m.AtA()
	p.AddDiag(0.1)
	q := linalg.NewVector(n)
	for i := range q {
		q[i] = 0.1 + rng.Float64()
	}
	cap := linalg.NewVector(n)
	cap.Fill(0.8)
	return singlePeriodQP(p, q, linalg.NewVector(n), cap, 1, 1.4)
}

// FISTA's answer on random portfolio-shaped QPs is optimal by the oracle, and
// ADMM lands on the same optimal value with a feasible point.
func TestADMMAndFISTAAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20; iter++ {
		n := 3 + rng.Intn(10)
		gen, proj := portfolioLikeQP(rng, n)
		ra := SolveADMM(gen, ADMMSettings{EpsAbs: 1e-8, EpsRel: 1e-8, MaxIter: 20000})
		rf := SolveFISTA(proj, FISTASettings{MaxIter: 20000, Tol: 1e-10})
		if ra.Status == StatusError {
			t.Fatalf("iter %d: ADMM error", iter)
		}
		assertOptimal(t, proj.P, proj.Q, proj.C, rf.X, 1e-7)
		objA := gen.Objective(ra.X)
		objF := gen.Objective(rf.X)
		if math.Abs(objA-objF) > 1e-4*(1+math.Abs(objA)) {
			t.Fatalf("iter %d n=%d: objectives differ: ADMM %v vs FISTA %v", iter, n, objA, objF)
		}
		if inf := gen.PrimalInfeasibility(rf.X); inf > 1e-6 {
			t.Fatalf("iter %d: FISTA solution infeasible by %v", iter, inf)
		}
		if inf := gen.PrimalInfeasibility(ra.X); inf > 1e-4 {
			t.Fatalf("iter %d: ADMM solution infeasible by %v", iter, inf)
		}
	}
}

// KKT optimality: at the FISTA solution, the negative gradient must lie in
// the normal cone; equivalently the fixed-point residual of a projected
// gradient step must vanish.
func TestFISTAKKTFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	_, proj := portfolioLikeQP(rng, 8)
	res := SolveFISTA(proj, FISTASettings{MaxIter: 20000, Tol: 1e-11})
	if d := fixedPointResidual(proj.P, proj.Q, proj.C, res.X); d > 1e-8 {
		t.Fatalf("fixed-point residual %v", d)
	}
}

func TestBlockDiagOperator(t *testing.T) {
	b1 := linalg.Identity(2)
	b1.ScaleInPlace(2)
	b2 := linalg.Identity(3)
	b2.ScaleInPlace(3)
	op := BlockDiagOperator{Blocks: []*linalg.Matrix{b1, b2}}
	if op.Dim() != 5 {
		t.Fatalf("Dim = %d", op.Dim())
	}
	x := linalg.Vector{1, 1, 1, 1, 1}
	dst := linalg.NewVector(5)
	op.Apply(x, dst)
	want := linalg.Vector{2, 2, 3, 3, 3}
	if !vecsEqual(dst, want, 0) {
		t.Fatalf("Apply = %v", dst)
	}
}

func TestEstimateLipschitz(t *testing.T) {
	// Diagonal matrix: λmax known exactly.
	d := linalg.NewMatrix(4, 4)
	for i, v := range []float64{1, 5, 2, 3} {
		d.Set(i, i, v)
	}
	l := EstimateLipschitz(DenseOperator{M: d}, 100)
	if l < 5 || l > 5.2 {
		t.Fatalf("Lipschitz estimate %v, want ≈5 (inflated)", l)
	}
	// Zero operator.
	z := EstimateLipschitz(DenseOperator{M: linalg.NewMatrix(3, 3)}, 10)
	if z <= 0 {
		t.Fatalf("zero-operator estimate %v must be positive", z)
	}
}

func TestStatusString(t *testing.T) {
	if StatusSolved.String() != "solved" ||
		StatusMaxIterations.String() != "max_iterations" ||
		StatusError.String() != "error" {
		t.Fatal("Status strings wrong")
	}
}

// Property: no sampled feasible point scores better than the ADMM solution,
// which is also a projected-gradient fixed point to ADMM's tolerance.
func TestADMMOptimalityAgainstFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	gen, proj := portfolioLikeQP(rng, 6)
	res := SolveADMM(gen, ADMMSettings{EpsAbs: 1e-8, EpsRel: 1e-8, MaxIter: 20000})
	assertOptimal(t, proj.P, proj.Q, proj.C, res.X, 1e-5)
}
