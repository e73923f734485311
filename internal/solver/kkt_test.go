package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// mpoShape is the constraint side of a structured test problem: one per-market
// box and one budget band, the same every period, and optionally an anchor
// floor over the marked markets.
type mpoShape struct {
	lo, hi       linalg.Vector
	sumLo, sumHi float64
	anchor       []bool
	anchorMin    float64
}

// structuredQP states one H-period MPO-shaped QP both ways from the same
// data: the structured Problem SolveADMM takes (CSR A, Block declaration) and
// the ProjectedProblem FISTA and the optimality oracle take (product of
// BoxBands). Both share one Hessian operator, assembled densely here from its
// definition — block-diagonal riskScale·risk plus the churn tridiagonal — and
// so independent of the reduced system factorBlockKKT assembles from Block.
func structuredQP(risk *linalg.Matrix, riskScale, churnK float64, h int, q linalg.Vector, s mpoShape) (*Problem, *ProjectedProblem) {
	n := risk.Rows
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
			p.Set(tau*n+i, tau*n+i, p.At(tau*n+i, tau*n+i)+churnK*dc)
			if tau > 0 {
				p.Set(tau*n+i, (tau-1)*n+i, -churnK)
				p.Set((tau-1)*n+i, tau*n+i, -churnK)
			}
		}
	}

	// Rows: dim box rows (identity), h sum rows, then h anchor rows.
	var is, js []int
	var l, u linalg.Vector
	for k := 0; k < dim; k++ {
		is, js = append(is, k), append(js, k)
		l, u = append(l, s.lo[k%n]), append(u, s.hi[k%n])
	}
	for tau := 0; tau < h; tau++ {
		for i := 0; i < n; i++ {
			is, js = append(is, dim+tau), append(js, tau*n+i)
		}
		l, u = append(l, s.sumLo), append(u, s.sumHi)
	}
	var anchorIdx []int
	for i, on := range s.anchor {
		if on {
			anchorIdx = append(anchorIdx, i)
		}
	}
	for tau := 0; tau < h && s.anchor != nil; tau++ {
		for _, i := range anchorIdx {
			is, js = append(is, dim+h+tau), append(js, tau*n+i)
		}
		l, u = append(l, s.anchorMin), append(u, math.Inf(1))
	}
	vs := make([]float64, len(is))
	for k := range vs {
		vs[k] = 1
	}

	bands := make([]*BoxBand, h)
	for tau := range bands {
		bands[tau] = NewBoxBand(s.lo, s.hi, s.sumLo, s.sumHi)
		if s.anchor != nil {
			bands[tau].WithAnchor(anchorIdx, s.anchorMin)
		}
	}
	op := denseOp{M: p}
	return &Problem{
			POp:     op,
			Q:       q,
			ASparse: linalg.NewCSRFromTriplets(len(l), dim, is, js, vs),
			L:       l,
			U:       u,
			Block:   &MPOStructure{N: n, H: h, Risk: risk, RiskScale: riskScale, ChurnK: churnK, Anchor: s.anchor},
		}, &ProjectedProblem{
			P: op,
			Q: q,
			C: NewProductSet(bands),
		}
}

// mpoKKTProblem draws a random H-period problem in exactly the representation
// the portfolio layer emits, with the last third of the markets under an
// anchor floor when anchored is set.
func mpoKKTProblem(rng *rand.Rand, n, h int, anchored bool) (*Problem, *ProjectedProblem) {
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	for i := range risk.Data {
		risk.Data[i] *= 1 / float64(n)
	}
	risk.AddDiag(0.5)
	q := linalg.NewVector(n * h)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	hi := linalg.NewVector(n)
	hi.Fill(0.8)
	s := mpoShape{lo: linalg.NewVector(n), hi: hi, sumLo: 1, sumHi: 1.5}
	if anchored {
		s.anchor = make([]bool, n)
		for i := n - (n+2)/3; i < n; i++ {
			s.anchor[i] = true
		}
		s.anchorMin = 0.45
	}
	return structuredQP(risk, 1.3, 0.8, h, q, s)
}

// The one KKT engine, held to the oracle where its behaviour lives: a reduced
// system assembled wrongly from Block (churn coupling, the sum rows' rank-one
// term, the anchor rows' second one) would converge to a point the oracle
// rejects, or not at all. Over the same grid FISTA's answer passes the oracle
// at its tighter tolerance and the two agree on the objective.
func TestKKTStructuredOptimalByOracle(t *testing.T) {
	for _, sz := range []struct{ n, h int }{{3, 1}, {4, 3}, {9, 4}, {6, 1}, {8, 5}} {
		for _, anchored := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(41 + sz.n)))
			gen, proj := mpoKKTProblem(rng, sz.n, sz.h, anchored)
			ra := SolveADMM(gen, ADMMSettings{EpsAbs: 1e-8, EpsRel: 1e-8, MaxIter: 20000})
			rf := SolveFISTA(proj, FISTASettings{MaxIter: 50000, Tol: 1e-10})
			if ra.Status != StatusSolved || rf.Status != StatusSolved {
				t.Fatalf("n=%d h=%d anchored=%v: ADMM %v, FISTA %v", sz.n, sz.h, anchored, ra.Status, rf.Status)
			}
			assertOptimal(t, proj.P, proj.Q, proj.C, rf.X, 1e-7)
			assertOptimal(t, proj.P, proj.Q, proj.C, ra.X, 1e-5)
			if d := math.Abs(ra.Objective - rf.Objective); d > 1e-6*(1+math.Abs(rf.Objective)) {
				t.Fatalf("n=%d h=%d anchored=%v: objective ADMM %v vs FISTA %v", sz.n, sz.h, anchored, ra.Objective, rf.Objective)
			}
		}
	}
}

func TestKKTValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	structured, _ := mpoKKTProblem(rng, 4, 3, true)
	if err := structured.Validate(); err != nil {
		t.Fatalf("valid structured problem rejected: %v", err)
	}
	blk := *structured.Block
	for name, mutate := range map[string]func(p *Problem){
		"no Hessian":             func(p *Problem) { p.POp = nil },
		"no Block":               func(p *Problem) { p.Block = nil },
		"Block without ASparse":  func(p *Problem) { p.ASparse = nil },
		"mismatched Block dims":  func(p *Problem) { b := blk; b.H = 2; p.Block = &b },
		"missing risk matrix":    func(p *Problem) { b := blk; b.Risk = nil; p.Block = &b },
		"mis-sized anchor":       func(p *Problem) { b := blk; b.Anchor = make([]bool, 3); p.Block = &b },
		"anchor rows undeclared": func(p *Problem) { b := blk; b.Anchor = nil; p.Block = &b },
	} {
		bad := *structured
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if res := SolveADMM(&bad, ADMMSettings{MaxIter: 10}); res.Status != StatusError {
			t.Errorf("%s: SolveADMM returned %v, want error", name, res.Status)
		}
	}
}

// admmIterAllocs measures the allocation cost of extra ADMM iterations: the
// difference between a long and a short capped solve. Steady-state iterations
// must be allocation-free.
func admmIterAllocs(t *testing.T, p *Problem, short, long int) float64 {
	t.Helper()
	measure := func(iters int) float64 {
		st := ADMMSettings{MaxIter: iters, EpsAbs: 1e-300, EpsRel: 1e-300}
		return testing.AllocsPerRun(3, func() { SolveADMM(p, st) })
	}
	return measure(long) - measure(short)
}

func TestKKTADMMSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	structured, _ := mpoKKTProblem(rng, 6, 4, false)
	if d := admmIterAllocs(t, structured, 100, 600); d != 0 {
		t.Errorf("structured ADMM allocates %.1f objects over 500 extra iterations, want 0", d)
	}
}

func TestKKTFISTASteadyStateZeroAlloc(t *testing.T) {
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
		P: blockDiagOp(blocks),
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
