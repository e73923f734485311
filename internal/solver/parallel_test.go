package solver

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// newTestPool returns a width-w pool, raising GOMAXPROCS when the host
// exposes fewer cores so the pool is genuinely concurrent under -race.
func newTestPool(t *testing.T, w int) *parallel.Pool {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	if old < w {
		runtime.GOMAXPROCS(w)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	p := parallel.New(w)
	t.Cleanup(p.Close)
	return p
}

// multiPeriodQP builds a horizon-stacked projected problem whose feasible
// set is a ProductSet — the shape whose per-period projections parallelize.
func multiPeriodQP(rng *rand.Rand, n, h int) *ProjectedProblem {
	blocks := make([]*linalg.Matrix, h)
	for τ := 0; τ < h; τ++ {
		m := linalg.NewMatrix(n+2, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64() * 0.3
		}
		blocks[τ] = m.AtA()
		blocks[τ].AddDiag(0.1)
	}
	q := linalg.NewVector(n * h)
	for i := range q {
		q[i] = 0.1 + rng.Float64()
	}
	sets := make([]*BoxBand, h)
	for τ := 0; τ < h; τ++ {
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		hi.Fill(0.8)
		sets[τ] = NewBoxBand(lo, hi, 1, 1.4)
	}
	return &ProjectedProblem{
		P: BlockDiagOperator{Blocks: blocks},
		Q: q,
		C: NewProductSet(sets),
	}
}

func vecsBitEqual(t *testing.T, name string, a, b linalg.Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length mismatch %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s diverges at %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestSolveFISTAParallelMatchesSerial is the solver-level determinism gate:
// pooled projections and update kernels must reproduce the serial iterates
// exactly, so the final solution is bit-identical.
func TestSolveFISTAParallelMatchesSerial(t *testing.T) {
	pool := newTestPool(t, 4)
	for seed := int64(0); seed < 5; seed++ {
		serial := SolveFISTA(multiPeriodQP(rand.New(rand.NewSource(seed)), 30, 6), FISTASettings{})
		par := SolveFISTA(multiPeriodQP(rand.New(rand.NewSource(seed)), 30, 6), FISTASettings{Workers: pool})
		if serial.Status != par.Status || serial.Iterations != par.Iterations {
			t.Fatalf("seed %d: status/iterations diverge: %v/%d vs %v/%d",
				seed, serial.Status, serial.Iterations, par.Status, par.Iterations)
		}
		vecsBitEqual(t, "FISTA X", serial.X, par.X)
		if serial.Objective != par.Objective {
			t.Fatalf("seed %d: objective diverges: %v vs %v", seed, serial.Objective, par.Objective)
		}
	}
}

func TestSolveADMMParallelMatchesSerial(t *testing.T) {
	pool := newTestPool(t, 4)
	// Also route the KKT factorization's Cholesky through the pool.
	linalg.SetPool(pool)
	t.Cleanup(func() { linalg.SetPool(nil) })
	for seed := int64(0); seed < 5; seed++ {
		gen, _ := portfolioLikeQP(rand.New(rand.NewSource(seed)), 40)
		linalg.SetPool(nil)
		serial := SolveADMM(gen, ADMMSettings{})
		linalg.SetPool(pool)
		par := SolveADMM(gen, ADMMSettings{Workers: pool})
		if serial.Status != par.Status || serial.Iterations != par.Iterations {
			t.Fatalf("seed %d: status/iterations diverge", seed)
		}
		vecsBitEqual(t, "ADMM X", serial.X, par.X)
		vecsBitEqual(t, "ADMM Y", serial.Y, par.Y)
		if serial.Objective != par.Objective {
			t.Fatalf("seed %d: objective diverges: %v vs %v", seed, serial.Objective, par.Objective)
		}
	}
}

// TestConcurrentSolvesSharedPool races many simultaneous FISTA and ADMM
// solves against one shared pool — the -race gate for the whole parallel
// solver stack (pool, linalg kernels, solver kernels).
func TestConcurrentSolvesSharedPool(t *testing.T) {
	pool := newTestPool(t, 4)
	linalg.SetPool(pool)
	t.Cleanup(func() { linalg.SetPool(nil) })

	const callers = 6
	type want struct {
		fista linalg.Vector
		admm  linalg.Vector
	}
	wants := make([]want, callers)
	for c := range wants {
		seed := int64(100 + c)
		wants[c].fista = SolveFISTA(multiPeriodQP(rand.New(rand.NewSource(seed)), 20, 4), FISTASettings{}).X
		gen, _ := portfolioLikeQP(rand.New(rand.NewSource(seed)), 24)
		wants[c].admm = SolveADMM(gen, ADMMSettings{}).X
	}

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(100 + c)
			f := SolveFISTA(multiPeriodQP(rand.New(rand.NewSource(seed)), 20, 4), FISTASettings{Workers: pool})
			gen, _ := portfolioLikeQP(rand.New(rand.NewSource(seed)), 24)
			a := SolveADMM(gen, ADMMSettings{Workers: pool})
			for i := range f.X {
				if f.X[i] != wants[c].fista[i] {
					t.Errorf("caller %d: concurrent FISTA diverged at %d", c, i)
					return
				}
			}
			for i := range a.X {
				if a.X[i] != wants[c].admm[i] {
					t.Errorf("caller %d: concurrent ADMM diverged at %d", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProductSetProjectWithMatchesProject checks the block-parallel
// projection against the serial one on random points.
func TestProductSetProjectWithMatchesProject(t *testing.T) {
	pool := newTestPool(t, 4)
	rng := rand.New(rand.NewSource(3))
	var sets []*BoxBand
	total := 0
	for k := 0; k < 12; k++ {
		n := 5 + rng.Intn(20)
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		hi.Fill(0.5 + rng.Float64())
		sets = append(sets, NewBoxBand(lo, hi, 1, 1.5))
		total += n
	}
	ps := NewProductSet(sets)
	for trial := 0; trial < 10; trial++ {
		x := linalg.NewVector(total)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := x.Clone()
		ps.Project(x)
		ps.ProjectWith(pool, y)
		vecsBitEqual(t, "ProductSet projection", x, y)
	}
}
