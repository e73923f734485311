package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// The optimality oracle: what a solver's answer is held to, with no second
// solver in the loop. x minimises f(x) = ½xᵀPx + qᵀx over a closed convex set
// exactly when it is a fixed point of the projected-gradient map, so the two
// checks below need nothing but P, q and the set's projection.

// fixedPointResidual is ‖x − Π(x − ∇f(x)/L)‖∞ with L from the oracle's own
// power iteration: zero at the optimum and nowhere else, and at least the
// distance from x to the set when x is infeasible.
func fixedPointResidual(p QuadOperator, q linalg.Vector, set Projector, x linalg.Vector) float64 {
	return projectedArc(p, q, set, x, 1/EstimateLipschitz(p, 100)).Sub(x).NormInf()
}

// projectedArc returns Π(x − s∇f(x)), the feasible point s along the
// projected-gradient arc from x.
func projectedArc(p QuadOperator, q linalg.Vector, set Projector, x linalg.Vector, s float64) linalg.Vector {
	g := linalg.NewVector(len(x))
	p.Apply(x, g)
	y := x.Clone()
	for i := range y {
		y[i] -= s * (g[i] + q[i])
	}
	set.Project(y)
	return y
}

// betterFeasiblePoint looks for a feasible point scoring below
// f(x) − tol·(1 + |f(x)|) and returns a description of the first one found, or "". The candidates are
// projections onto the set: further along the projected-gradient arc (where a
// better point lies if x is not optimal), x plus Gaussian noise at four scales
// (the neighbourhood), and pure noise (the rest of the set).
func betterFeasiblePoint(p QuadOperator, q linalg.Vector, set Projector, x linalg.Vector, tol float64) string {
	tmp := linalg.NewVector(len(x))
	f := func(v linalg.Vector) float64 {
		p.Apply(v, tmp)
		return 0.5*v.Dot(tmp) + q.Dot(v)
	}
	fx := f(x)
	slack := tol * (1 + math.Abs(fx))
	l := EstimateLipschitz(p, 100)
	for _, s := range []float64{1, 10, 100, 1000} {
		if fy := f(projectedArc(p, q, set, x, s/l)); fy < fx-slack {
			return fmt.Sprintf("%v/L along the projected-gradient arc scores %v < %v", s, fy, fx)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(x))))
	y := linalg.NewVector(len(x))
	for k := 0; k < 250; k++ {
		scale := math.Pow(10, -float64(k%5)) // 1 … 1e-4
		for i := range y {
			y[i] = scale * rng.NormFloat64()
			if k%5 != 0 {
				y[i] += x[i]
			}
		}
		set.Project(y)
		if fy := f(y); fy < fx-slack {
			return fmt.Sprintf("sample %d (noise %g) scores %v < %v", k, scale, fy, fx)
		}
	}
	return ""
}

// assertOptimal fails unless x is optimal for min ½xᵀPx + qᵀx over set to
// tolerance: the fixed-point residual is at most tol, and no sampled feasible
// point scores better by more than tol·(1 + |f(x)|).
func assertOptimal(t *testing.T, p QuadOperator, q linalg.Vector, set Projector, x linalg.Vector, tol float64) {
	t.Helper()
	if r := fixedPointResidual(p, q, set, x); !(r <= tol) {
		t.Fatalf("not optimal: projected-gradient fixed-point residual %g > %g", r, tol)
	}
	if msg := betterFeasiblePoint(p, q, set, x, tol); msg != "" {
		t.Fatalf("not optimal: %s", msg)
	}
}

// oracleSets are the three shapes of feasible set the planner builds, at
// n markets: the box alone (band wide open), box ∩ budget band, and the band
// with an anchor floor over the last third of the coordinates.
func oracleSets(n int) map[string]*BoxBand {
	mk := func(sumLo, sumHi float64) *BoxBand {
		hi := linalg.NewVector(n)
		hi.Fill(0.8)
		return NewBoxBand(linalg.NewVector(n), hi, sumLo, sumHi)
	}
	var anchor []int
	for i := n - (n+2)/3; i < n; i++ {
		anchor = append(anchor, i)
	}
	return map[string]*BoxBand{
		"box":      mk(math.Inf(-1), math.Inf(1)),
		"band":     mk(1, 1.4),
		"anchored": mk(1, 1.4).WithAnchor(anchor, 0.45),
	}
}

// randomQuadratic draws an SPD Hessian and a linear term with both signs, so
// the box, the band and the anchor floor all bind somewhere.
func randomQuadratic(rng *rand.Rand, n int) (*linalg.Matrix, linalg.Vector) {
	g := linalg.NewMatrix(n+2, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64() * 0.3
	}
	m := g.AtA()
	m.AddDiag(0.1)
	q := linalg.NewVector(n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return m, q
}

// FISTA's answers are optimal by the oracle on every set shape and size, and
// the oracle is not vacuous: x + 0.05·(w − x), a twentieth of the way from the
// optimum x to a random feasible point w (feasible by convexity, suboptimal by
// strong convexity), is rejected by each check on its own.
func TestFISTAOptimalByOracle(t *testing.T) {
	for _, n := range []int{3, 9, 50} {
		for name, set := range oracleSets(n) {
			rng := rand.New(rand.NewSource(int64(100 + n)))
			m, q := randomQuadratic(rng, n)
			op := denseOp{M: m}
			res := SolveFISTA(&ProjectedProblem{P: op, Q: q, C: set}, FISTASettings{MaxIter: 50000, Tol: 1e-10})
			if res.Status != StatusSolved {
				t.Fatalf("%s n=%d: %v after %d iterations", name, n, res.Status, res.Iterations)
			}
			assertOptimal(t, op, q, set, res.X, 1e-7)

			w := set.randomFeasiblePoint(rng)
			bad := res.X.Clone().Scale(0.95)
			for i := range bad {
				bad[i] += 0.05 * w[i]
			}
			if r := fixedPointResidual(op, q, set, bad); r <= 1e-7 {
				t.Errorf("%s n=%d: fixed-point check accepts the perturbed point (residual %g)", name, n, r)
			}
			if betterFeasiblePoint(op, q, set, bad, 1e-7) == "" {
				t.Errorf("%s n=%d: sampling finds nothing better than the perturbed point", name, n)
			}
		}
	}
}
