package solver

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func maxAbsDiff(t *testing.T, a, b linalg.Vector) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	var mx float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}

// A warm re-solve of the identical problem must reuse the cached KKT
// factorization, converge in no more iterations than the cold solve, and land
// on the same solution.
func TestADMMWarmSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen, _ := portfolioLikeQP(rng, 12)
	cold := SolveADMM(gen, ADMMSettings{})
	if cold.Status != StatusSolved {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	if cold.WarmStarted {
		t.Fatal("cold solve must not report WarmStarted")
	}
	if !cold.Warm.HasFactorization() {
		t.Fatal("cold result should carry a KKT factorization")
	}
	warm := SolveADMM(gen, ADMMSettings{Warm: cold.Warm})
	if warm.Status != StatusSolved {
		t.Fatalf("warm solve: status %v", warm.Status)
	}
	if !warm.WarmStarted {
		t.Fatal("warm solve should report WarmStarted")
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	if warm.Warm.fact != cold.Warm.fact {
		t.Fatal("identical problem: cached factorization should be reused")
	}
	if d := maxAbsDiff(t, cold.X, warm.X); d > 1e-4 {
		t.Fatalf("warm and cold solutions differ by %v", d)
	}
}

// Perturbing only the linear term keeps the KKT fingerprint (which covers P,
// A, σ, ρ) intact, so the factorization is still reused — and the warm solve
// must converge to the *perturbed* problem's solution, not the stale one.
func TestADMMWarmLinearPerturbationReusesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen, _ := portfolioLikeQP(rng, 10)
	cold := SolveADMM(gen, ADMMSettings{})
	if cold.Status != StatusSolved {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	pert := *gen
	pert.Q = gen.Q.Clone()
	for i := range pert.Q {
		pert.Q[i] *= 1 + 0.05*rng.Float64()
	}
	warm := SolveADMM(&pert, ADMMSettings{Warm: cold.Warm})
	ref := SolveADMM(&pert, ADMMSettings{})
	if warm.Status != StatusSolved || ref.Status != StatusSolved {
		t.Fatalf("statuses: warm %v, ref %v", warm.Status, ref.Status)
	}
	if warm.Warm.fact != cold.Warm.fact {
		t.Fatal("q-only perturbation: factorization should still be reused")
	}
	if d := maxAbsDiff(t, ref.X, warm.X); d > 1e-4 {
		t.Fatalf("warm solve missed the perturbed optimum by %v", d)
	}
	if warm.Iterations > ref.Iterations {
		t.Fatalf("warm took %d iterations vs cold %d on the perturbed problem",
			warm.Iterations, ref.Iterations)
	}
}

// Perturbing the quadratic term changes the fingerprint: the stale
// factorization must NOT be reused (it would be numerically wrong), but the
// warm iterates still seed the solve.
func TestADMMWarmQuadraticPerturbationRefactors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 8
	gen, _ := portfolioLikeQP(rng, n)
	cold := SolveADMM(gen, ADMMSettings{})
	if cold.Status != StatusSolved {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	pp := gen.Block.Risk.Clone()
	pp.AddDiag(0.01)
	pert, _ := singlePeriodQP(pp, gen.Q, gen.L[:n], gen.U[:n], gen.L[n], gen.U[n])
	warm := SolveADMM(pert, ADMMSettings{Warm: cold.Warm})
	ref := SolveADMM(pert, ADMMSettings{})
	if warm.Status != StatusSolved {
		t.Fatalf("warm solve: status %v", warm.Status)
	}
	if warm.Warm.fact == cold.Warm.fact {
		t.Fatal("P changed: stale factorization must be dropped")
	}
	if !warm.WarmStarted {
		t.Fatal("iterate seeding should still mark the solve warm")
	}
	if d := maxAbsDiff(t, ref.X, warm.X); d > 1e-4 {
		t.Fatalf("warm solve missed the perturbed optimum by %v", d)
	}
}

// problemSig is a value hash: identical data hashes identically, and any
// change to the risk block, A, σ or ρ changes the fingerprint.
func TestProblemSigSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen, _ := portfolioLikeQP(rng, 6)
	base := problemSig(gen, 1e-6, 0.1)
	if again := problemSig(gen, 1e-6, 0.1); again != base {
		t.Fatal("fingerprint not deterministic")
	}
	if problemSig(gen, 1e-6, 0.2) == base {
		t.Fatal("rho change should change the fingerprint")
	}
	if problemSig(gen, 1e-5, 0.1) == base {
		t.Fatal("sigma change should change the fingerprint")
	}
	p2 := *gen
	blk := *gen.Block
	blk.Risk = gen.Block.Risk.Clone()
	blk.Risk.Add(0, 0, 1e-12)
	p2.Block = &blk
	if problemSig(&p2, 1e-6, 0.1) == base {
		t.Fatal("P value change should change the fingerprint")
	}
	gen.ASparse.Val[0] += 1e-12
	if problemSig(gen, 1e-6, 0.1) == base {
		t.Fatal("A value change should change the fingerprint")
	}
}

// FISTA warm re-solve: cached Lipschitz estimate and iterates carry over, the
// solve reports WarmStarted and lands on the same point in no more iterations.
func TestFISTAWarmSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, proj := portfolioLikeQP(rng, 15)
	cold := SolveFISTA(proj, FISTASettings{})
	if cold.Status != StatusSolved {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	if cold.Warm.lip <= 0 || len(cold.Warm.lipVec) != 15 {
		t.Fatalf("cold result should cache the Lipschitz estimate, got %v / %d-vec",
			cold.Warm.lip, len(cold.Warm.lipVec))
	}
	warm := SolveFISTA(proj, FISTASettings{Warm: cold.Warm})
	if warm.Status != StatusSolved {
		t.Fatalf("warm solve: status %v", warm.Status)
	}
	if !warm.WarmStarted {
		t.Fatal("warm solve should report WarmStarted")
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	if d := maxAbsDiff(t, cold.X, warm.X); d > 1e-5 {
		t.Fatalf("warm and cold solutions differ by %v", d)
	}
	if warm.Warm.lip <= 0 || len(warm.Warm.lipVec) != 15 {
		t.Fatal("warm result should re-cache the Lipschitz estimate")
	}
}

// ShiftHorizon on the MPO layout: period blocks move one step earlier with
// the terminal block duplicated; the ADMM z/y vectors shift their box part by
// one period-block and their per-period aggregate tail by one row.
func TestShiftHorizonMPOLayout(t *testing.T) {
	w := &WarmState{
		x:     linalg.Vector{1, 2, 3, 4, 5, 6},
		xPrev: linalg.Vector{10, 20, 30, 40, 50, 60},
		z:     linalg.Vector{0, 1, 2, 3, 4, 5, 100, 101, 102},
		y:     linalg.Vector{-0, -1, -2, -3, -4, -5, -100, -101, -102},
	}
	w.ShiftHorizon(2)
	want := map[string][2]linalg.Vector{
		"x":     {w.x, {3, 4, 5, 6, 5, 6}},
		"xPrev": {w.xPrev, {30, 40, 50, 60, 50, 60}},
		"z":     {w.z, {2, 3, 4, 5, 4, 5, 101, 102, 102}},
		"y":     {w.y, {-2, -3, -4, -5, -4, -5, -101, -102, -102}},
	}
	for name, pair := range want {
		got, exp := pair[0], pair[1]
		if len(got) != len(exp) {
			t.Fatalf("%s: length %d, want %d", name, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("%s[%d] = %v, want %v (full: %v)", name, i, got[i], exp[i], got)
			}
		}
	}
}

// ShiftHorizon must drop iterates it cannot shift meaningfully rather than
// feed garbage seeds to the next solve, and must be nil-safe.
func TestShiftHorizonUnknownLayouts(t *testing.T) {
	// z/y that don't match the h·n+h MPO constraint layout are dropped; x
	// still shifts.
	w := &WarmState{
		x: linalg.Vector{1, 2, 3, 4},
		z: linalg.Vector{7, 8, 9},
		y: linalg.Vector{7, 8, 9},
	}
	w.ShiftHorizon(2)
	if w.z != nil || w.y != nil {
		t.Fatal("non-MPO z/y layout should be dropped")
	}
	if w.x[0] != 3 || w.x[1] != 4 {
		t.Fatalf("x should still shift: %v", w.x)
	}

	// x not divisible into period blocks: all iterates dropped.
	w2 := &WarmState{x: linalg.Vector{1, 2, 3}, xPrev: linalg.Vector{1, 2, 3}}
	w2.ShiftHorizon(2)
	if w2.x != nil || w2.xPrev != nil {
		t.Fatal("indivisible x layout should drop the iterates")
	}

	// Nil receiver and accessors.
	var nilW *WarmState
	nilW.ShiftHorizon(3)
	if nilW.HasFactorization() {
		t.Fatal("nil WarmState has no factorization")
	}
	if nilW.Primal() != nil {
		t.Fatal("nil WarmState has no primal")
	}
}

// Warm state from a different-dimension problem must be ignored gracefully:
// no panic, no seeding, and the solve still reaches the correct solution.
func TestWarmWrongDimensionIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bigGen, bigProj := portfolioLikeQP(rng, 12)
	smallGen, smallProj := portfolioLikeQP(rng, 5)

	stale := SolveADMM(bigGen, ADMMSettings{})
	warm := SolveADMM(smallGen, ADMMSettings{Warm: stale.Warm})
	ref := SolveADMM(smallGen, ADMMSettings{})
	if warm.Status != StatusSolved {
		t.Fatalf("ADMM with mismatched warm state: status %v", warm.Status)
	}
	if warm.WarmStarted {
		t.Fatal("mismatched warm state must not mark the solve warm")
	}
	if d := maxAbsDiff(t, ref.X, warm.X); d > 1e-6 {
		t.Fatalf("mismatched warm state changed the ADMM solution by %v", d)
	}

	staleF := SolveFISTA(bigProj, FISTASettings{})
	warmF := SolveFISTA(smallProj, FISTASettings{Warm: staleF.Warm})
	refF := SolveFISTA(smallProj, FISTASettings{})
	if warmF.Status != StatusSolved {
		t.Fatalf("FISTA with mismatched warm state: status %v", warmF.Status)
	}
	if warmF.WarmStarted {
		t.Fatal("mismatched warm state must not mark the FISTA solve warm")
	}
	if d := maxAbsDiff(t, refF.X, warmF.X); d > 1e-6 {
		t.Fatalf("mismatched warm state changed the FISTA solution by %v", d)
	}
}
