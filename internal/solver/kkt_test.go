package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// mpoKKTProblems builds the same MPO-shaped QP twice: once dense (full P and
// A) and once structured (matrix-free P, CSR A, Block declaration). The
// structured pair is exactly the representation the portfolio layer emits, so
// agreement between the two is the correctness contract of the sparse KKT
// path.
func mpoKKTProblems(rng *rand.Rand, n, h int) (dense, structured *Problem) {
	const (
		riskScale = 1.3
		churnK    = 0.8
	)
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	risk.ScaleInPlace(1 / float64(n))
	risk.AddDiag(0.5)

	dim := n * h
	p := linalg.NewMatrix(dim, dim)
	for tau := 0; tau < h; tau++ {
		dc := 2.0
		if tau+1 == h {
			dc = 1
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.Set(tau*n+i, tau*n+j, riskScale*risk.At(i, j))
			}
			p.Add(tau*n+i, tau*n+i, churnK*dc)
			if tau > 0 {
				p.Set(tau*n+i, (tau-1)*n+i, -churnK)
				p.Set((tau-1)*n+i, tau*n+i, -churnK)
			}
		}
	}

	m := dim + h
	a := linalg.NewMatrix(m, dim)
	var is, js []int
	var vs []float64
	for i := 0; i < dim; i++ {
		a.Set(i, i, 1)
		is, js, vs = append(is, i), append(js, i), append(vs, 1)
	}
	for tau := 0; tau < h; tau++ {
		for j := tau * n; j < (tau+1)*n; j++ {
			a.Set(dim+tau, j, 1)
			is, js, vs = append(is, dim+tau), append(js, j), append(vs, 1)
		}
	}

	q := linalg.NewVector(dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	l := linalg.NewVector(m)
	u := linalg.NewVector(m)
	for i := 0; i < dim; i++ {
		u[i] = 0.8
	}
	for tau := 0; tau < h; tau++ {
		l[dim+tau] = 1
		u[dim+tau] = 1.5
	}

	dense = &Problem{P: p, Q: q, A: a, L: l, U: u}
	structured = &Problem{
		POp:     DenseOperator{M: p},
		Q:       q.Clone(),
		ASparse: linalg.NewCSRFromTriplets(m, dim, is, js, vs),
		L:       l.Clone(),
		U:       u.Clone(),
		Block:   &MPOStructure{N: n, H: h, Risk: risk, RiskScale: riskScale, ChurnK: churnK},
	}
	return dense, structured
}

// The block-tridiagonal path must walk the same ADMM trajectory as the dense
// full-KKT path: both solve the identical x-update system, so iterates agree
// to floating-point reassociation noise at every iteration count, not just at
// convergence.
func TestKKTBlockMatchesDenseTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sz := range []struct{ n, h int }{{4, 3}, {8, 5}, {6, 1}} {
		dense, structured := mpoKKTProblems(rng, sz.n, sz.h)
		for _, iters := range []int{1, 3, 10, 60} {
			st := ADMMSettings{MaxIter: iters, EpsAbs: 1e-300, EpsRel: 1e-300}
			rd := SolveADMM(dense, st)
			rs := SolveADMM(structured, st)
			if rd.Status == StatusError || rs.Status == StatusError {
				t.Fatalf("n=%d h=%d iters=%d: solve errored (%v / %v)", sz.n, sz.h, iters, rd.Status, rs.Status)
			}
			scale := rd.X.NormInf() + 1
			for i := range rd.X {
				if math.Abs(rd.X[i]-rs.X[i]) > 1e-7*scale {
					t.Fatalf("n=%d h=%d iters=%d: x[%d] = %v dense vs %v block",
						sz.n, sz.h, iters, i, rd.X[i], rs.X[i])
				}
			}
			for i := range rd.Y {
				if math.Abs(rd.Y[i]-rs.Y[i]) > 1e-6*(rd.Y.NormInf()+1) {
					t.Fatalf("n=%d h=%d iters=%d: y[%d] = %v dense vs %v block",
						sz.n, sz.h, iters, i, rd.Y[i], rs.Y[i])
				}
			}
		}
		// Full convergence: both must report solved and agree on the optimum.
		rd := SolveADMM(dense, ADMMSettings{MaxIter: 8000})
		rs := SolveADMM(structured, ADMMSettings{MaxIter: 8000})
		if rd.Status != StatusSolved || rs.Status != StatusSolved {
			t.Fatalf("n=%d h=%d: not solved (%v / %v)", sz.n, sz.h, rd.Status, rs.Status)
		}
		if math.Abs(rd.Objective-rs.Objective) > 1e-6*(math.Abs(rd.Objective)+1) {
			t.Fatalf("n=%d h=%d: objective %v dense vs %v block", sz.n, sz.h, rd.Objective, rs.Objective)
		}
	}
}

// A sparse A without a Block declaration takes the general reduced fallback
// (dense Cholesky of P + σI + ρAᵀA); it too must match the full dense KKT.
func TestKKTReducedFallbackMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dense, structured := mpoKKTProblems(rng, 5, 4)
	reduced := &Problem{
		P:       dense.P.Clone(),
		Q:       dense.Q.Clone(),
		ASparse: structured.ASparse,
		L:       dense.L.Clone(),
		U:       dense.U.Clone(),
	}
	for _, iters := range []int{1, 10, 50} {
		st := ADMMSettings{MaxIter: iters, EpsAbs: 1e-300, EpsRel: 1e-300}
		rd := SolveADMM(dense, st)
		rr := SolveADMM(reduced, st)
		scale := rd.X.NormInf() + 1
		for i := range rd.X {
			if math.Abs(rd.X[i]-rr.X[i]) > 1e-7*scale {
				t.Fatalf("iters=%d: x[%d] = %v dense vs %v reduced", iters, i, rd.X[i], rr.X[i])
			}
		}
	}
}

// The structured fingerprint must cache and reuse the block factorization
// across solves of the identical problem, and refuse it when any structural
// datum changes.
func TestKKTStructuredWarmFactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, structured := mpoKKTProblems(rng, 5, 3)
	r1 := SolveADMM(structured, ADMMSettings{MaxIter: 200})
	if r1.Warm == nil || !r1.Warm.HasFactorization() {
		t.Fatal("first solve produced no cached factorization")
	}
	r2 := SolveADMM(structured, ADMMSettings{MaxIter: 200, Warm: r1.Warm})
	if !r2.WarmStarted {
		t.Fatal("second solve did not warm start")
	}
	if r2.Warm.fact != r1.Warm.fact {
		t.Fatal("identical problem did not reuse the cached block factorization")
	}
	// Perturb the risk matrix: the fingerprint must change and the factor
	// must be rebuilt (reusing it would solve the wrong system).
	structured.Block.Risk.Add(0, 0, 1e-3)
	r3 := SolveADMM(structured, ADMMSettings{MaxIter: 200, Warm: r2.Warm})
	if r3.Warm.fact == r2.Warm.fact {
		t.Fatal("perturbed risk matrix still reused the stale factorization")
	}
	// Same data through a different path (dense vs block) must not collide:
	// the path tag keeps the fingerprints distinct even if values matched.
	dense, structured2 := mpoKKTProblems(rand.New(rand.NewSource(44)), 5, 3)
	sd := problemSig(dense, 1e-6, 0.1)
	ss := problemSig(structured2, 1e-6, 0.1)
	if sd == ss {
		t.Fatal("dense and structured fingerprints collide")
	}
}

func TestKKTValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	_, structured := mpoKKTProblems(rng, 4, 3)
	if err := structured.Validate(); err != nil {
		t.Fatalf("valid structured problem rejected: %v", err)
	}
	bad := *structured
	bad.Block = &MPOStructure{N: 4, H: 2, Risk: structured.Block.Risk, RiskScale: 1, ChurnK: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched Block dims accepted")
	}
	bad = *structured
	bad.Block = &MPOStructure{N: 4, H: 3, RiskScale: 1, ChurnK: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing risk matrix accepted")
	}
	bad = *structured
	bad.ASparse = nil
	bad.A = linalg.NewMatrix(structured.M(), structured.N())
	if err := bad.Validate(); err == nil {
		t.Fatal("Block without sparse A accepted")
	}
	none := &Problem{Q: linalg.NewVector(3)}
	if err := none.Validate(); err == nil {
		t.Fatal("problem with no Hessian accepted")
	}
	// A matrix-free Hessian without Block structure validates (FISTA can use
	// it) but the ADMM factorization must refuse it.
	mf := *structured
	mf.Block = nil
	if err := mf.Validate(); err != nil {
		t.Fatalf("matrix-free problem rejected: %v", err)
	}
	if res := SolveADMM(&mf, ADMMSettings{MaxIter: 10}); res.Status != StatusError {
		t.Fatalf("ADMM accepted matrix-free Hessian without structure: %v", res.Status)
	}
}

// admmIterAllocs measures the allocation cost of extra ADMM iterations: the
// difference between a long and a short capped solve. Steady-state iterations
// must be allocation-free on both KKT paths (serial configuration; the
// parallel pool allocates dispatch closures by design).
func admmIterAllocs(t *testing.T, p *Problem, short, long int) float64 {
	t.Helper()
	measure := func(iters int) float64 {
		st := ADMMSettings{MaxIter: iters, EpsAbs: 1e-300, EpsRel: 1e-300}
		return testing.AllocsPerRun(3, func() { SolveADMM(p, st) })
	}
	return measure(long) - measure(short)
}

func TestKKTADMMSteadyStateZeroAlloc(t *testing.T) {
	prev := linalg.ActivePool()
	linalg.SetPool(nil)
	defer linalg.SetPool(prev)
	rng := rand.New(rand.NewSource(46))
	dense, structured := mpoKKTProblems(rng, 6, 4)
	if d := admmIterAllocs(t, dense, 100, 600); d != 0 {
		t.Errorf("dense ADMM allocates %.1f objects over 500 extra iterations, want 0", d)
	}
	if d := admmIterAllocs(t, structured, 100, 600); d != 0 {
		t.Errorf("structured ADMM allocates %.1f objects over 500 extra iterations, want 0", d)
	}
}

func TestKKTFISTASteadyStateZeroAlloc(t *testing.T) {
	prev := linalg.ActivePool()
	linalg.SetPool(nil)
	defer linalg.SetPool(prev)
	rng := rand.New(rand.NewSource(47))
	n, h := 6, 4
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	risk.AddDiag(0.5)
	blocks := make([]*linalg.Matrix, h)
	bands := make([]*BoxBand, h)
	for tau := 0; tau < h; tau++ {
		blocks[tau] = risk
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		hi.Fill(0.8)
		bands[tau] = NewBoxBand(lo, hi, 1, 1.5)
	}
	q := linalg.NewVector(n * h)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	p := &ProjectedProblem{
		P: BlockDiagOperator{Blocks: blocks},
		Q: q,
		C: NewProductSet(bands),
	}
	measure := func(iters int) float64 {
		st := FISTASettings{MaxIter: iters, Tol: 1e-300}
		if ps := SolveFISTA(p, st).Projection; ps.Projections < iters || ps.PassesPerProjection() >= 15 {
			t.Fatalf("MaxIter %d: %+v (%.1f real passes per bisected projection); the test needs projections that bisect every iteration at under 15",
				iters, ps, ps.PassesPerProjection())
		}
		return testing.AllocsPerRun(3, func() { SolveFISTA(p, st) })
	}
	if d := measure(600) - measure(100); d != 0 {
		t.Errorf("FISTA allocates %.1f objects over 500 extra iterations, want 0", d)
	}
}

// The structured path must also work through SolveADMMScaled, which delegates
// straight to SolveADMM (Ruiz is dense-only).
func TestKKTScaledDelegatesStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	dense, structured := mpoKKTProblems(rng, 5, 3)
	rd := SolveADMMScaled(dense, ADMMSettings{MaxIter: 8000})
	rs := SolveADMMScaled(structured, ADMMSettings{MaxIter: 8000})
	if rs.Status != StatusSolved {
		t.Fatalf("structured scaled solve: %v", rs.Status)
	}
	if math.Abs(rd.Objective-rs.Objective) > 1e-5*(math.Abs(rd.Objective)+1) {
		t.Fatalf("objective %v dense-scaled vs %v structured", rd.Objective, rs.Objective)
	}
}

// Pooled structured solves must reproduce the serial iterates bit-for-bit
// (the reduced step is serial; only the element-wise updates split).
func TestKKTStructuredPooledMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	_, structured := mpoKKTProblems(rng, 8, 4)
	serial := SolveADMM(structured, ADMMSettings{MaxIter: 300})
	pool := parallel.New(4)
	defer pool.Close()
	pooled := SolveADMM(structured, ADMMSettings{MaxIter: 300, Workers: pool})
	for i := range serial.X {
		if serial.X[i] != pooled.X[i] {
			t.Fatalf("pooled x[%d] = %v, serial %v", i, pooled.X[i], serial.X[i])
		}
	}
}
