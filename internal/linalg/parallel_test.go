package linalg

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// usePool registers a width-w pool for the duration of the test, raising
// GOMAXPROCS if the host exposes fewer cores (single-CPU CI containers would
// otherwise silently collapse the pool to serial).
func usePool(t *testing.T, w int) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	if old < w {
		runtime.GOMAXPROCS(w)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	p := parallel.New(w)
	SetPool(p)
	t.Cleanup(func() {
		SetPool(nil)
		p.Close()
	})
}

// TestParallelKernelsBitIdentical checks that every parallelized kernel
// returns bit-identical results with and without a registered pool — the
// determinism contract the MPO equivalence guarantee rests on.
func TestParallelKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type result struct {
		mulVec, mulVecT Vector
		mul, ata        *Matrix
		chol            *CholeskyFactor
		cholSolve       Vector
	}
	const rows, cols = 210, 190
	a := randomMatrix(rng, rows, cols)
	b := randomMatrix(rng, cols, rows)
	x := randomMatrix(rng, 1, cols).Row(0)
	y := randomMatrix(rng, 1, rows).Row(0)
	spd := randomSPD(rng, 160)
	rhs := randomMatrix(rng, 1, 160).Row(0)

	compute := func() result {
		var r result
		r.mulVec = a.MulVec(x, NewVector(rows))
		r.mulVecT = a.MulVecT(y, NewVector(cols))
		r.mul = a.Mul(b)
		r.ata = a.AtA()
		var err error
		if r.chol, err = Cholesky(spd); err != nil {
			t.Fatal(err)
		}
		r.cholSolve = r.chol.Solve(rhs, NewVector(160))
		return r
	}

	SetPool(nil)
	serial := compute()
	usePool(t, 4)
	par := compute()

	eqVec := func(name string, s, p Vector) {
		t.Helper()
		for i := range s {
			if s[i] != p[i] {
				t.Fatalf("%s diverges at %d: serial %v parallel %v", name, i, s[i], p[i])
			}
		}
	}
	eqMat := func(name string, s, p *Matrix) {
		t.Helper()
		for i := range s.Data {
			if s.Data[i] != p.Data[i] {
				t.Fatalf("%s diverges at flat index %d: serial %v parallel %v", name, i, s.Data[i], p.Data[i])
			}
		}
	}
	eqVec("MulVec", serial.mulVec, par.mulVec)
	eqVec("MulVecT", serial.mulVecT, par.mulVecT)
	eqMat("Mul", serial.mul, par.mul)
	eqMat("AtA", serial.ata, par.ata)
	eqMat("Cholesky L", serial.chol.l, par.chol.l)
	eqVec("Cholesky Solve", serial.cholSolve, par.cholSolve)
}

func TestSetPoolIgnoresSerialPool(t *testing.T) {
	SetPool(parallel.Serial)
	if ActivePool() != nil {
		t.Error("registering a serial pool should leave kernels on the inline path")
	}
	SetPool(nil)
}
