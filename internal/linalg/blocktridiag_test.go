package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// blockTriDiagFixture builds random SPD diagonal blocks plus the dense
// assembly of the full block-tridiagonal matrix for reference solves.
func blockTriDiagFixture(rng *rand.Rand, n, h int, off float64) ([]*Matrix, *Matrix) {
	dense := NewMatrix(n*h, n*h)
	diag := make([]*Matrix, h)
	for τ := 0; τ < h; τ++ {
		// Gᵀ·G + shift·I is SPD; the shift dominates |off| so every Schur
		// complement stays positive definite.
		g := NewMatrix(n, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		d := g.AtA()
		d.AddDiag(1 + 2*math.Abs(off))
		diag[τ] = d
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dense.Set(τ*n+i, τ*n+j, d.At(i, j))
			}
			if τ > 0 {
				dense.Set(τ*n+i, (τ-1)*n+i, off)
				dense.Set((τ-1)*n+i, τ*n+i, off)
			}
		}
	}
	return diag, dense
}

// The block recursion against a dense factorization of the assembled matrix
// (Cholesky — the matrix is SPD; the name predates the dense LDLᵀ's removal)
// and against the system itself.
func TestBlockTriDiagMatchesDenseLDL(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		n, h int
		off  float64
	}{
		{4, 3, -0.7},
		{6, 5, 0.4},
		{3, 1, -0.5}, // single block: off unused
		{5, 4, 0},    // decoupled blocks
		{1, 6, -0.2}, // scalar blocks: plain tridiagonal
	}
	for _, c := range cases {
		diag, dense := blockTriDiagFixture(rng, c.n, c.h, c.off)
		f, err := FactorBlockTriDiag(diag, c.off)
		if err != nil {
			t.Fatalf("n=%d h=%d off=%v: factor failed: %v", c.n, c.h, c.off, err)
		}
		if f.Dim() != c.n*c.h {
			t.Fatalf("Dim = %d, want %d", f.Dim(), c.n*c.h)
		}
		ref, err := Cholesky(dense)
		if err != nil {
			t.Fatalf("reference Cholesky failed: %v", err)
		}
		b := NewVector(c.n * c.h)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := NewVector(len(b))
		ref.Solve(b, want)
		got := NewVector(len(b))
		f.Solve(b, got)
		// The answer on its own terms, K·x = b, besides agreeing with the
		// dense factorization of the assembled matrix.
		kx := NewVector(len(b))
		dense.MulVec(got, kx)
		if r := kx.Sub(b).NormInf(); r > 1e-10*(b.NormInf()+1) {
			t.Fatalf("n=%d h=%d off=%v: residual ‖Kx − b‖∞ = %v", c.n, c.h, c.off, r)
		}
		scale := want.NormInf() + 1
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*scale {
				t.Fatalf("n=%d h=%d off=%v: solve mismatch at %d: %v vs %v",
					c.n, c.h, c.off, i, got[i], want[i])
			}
		}
		// In-place solve (dst aliasing b) must agree.
		f.Solve(b, b)
		for i := range want {
			if math.Abs(b[i]-want[i]) > 1e-9*scale {
				t.Fatalf("aliased solve mismatch at %d", i)
			}
		}
	}
}

func TestBlockTriDiagErrors(t *testing.T) {
	if _, err := FactorBlockTriDiag(nil, 0); err == nil {
		t.Fatal("expected error for empty block list")
	}
	if _, err := FactorBlockTriDiag([]*Matrix{NewMatrix(2, 2), NewMatrix(3, 3)}, 0); err == nil {
		t.Fatal("expected error for mismatched block shapes")
	}
	// Indefinite diagonal block: Cholesky must reject it.
	bad := NewMatrix(2, 2)
	bad.Set(0, 0, -1)
	bad.Set(1, 1, 1)
	if _, err := FactorBlockTriDiag([]*Matrix{bad}, 0); err == nil {
		t.Fatal("expected error for indefinite block")
	}
}

// The factorization releases each Schur block once factored; the caller's
// slice is consumed.
func TestBlockTriDiagConsumesDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	diag, _ := blockTriDiagFixture(rng, 3, 4, -0.3)
	if _, err := FactorBlockTriDiag(diag, -0.3); err != nil {
		t.Fatal(err)
	}
	for τ, d := range diag {
		if d != nil {
			t.Fatalf("block %d not released", τ)
		}
	}
}

// Solve must be allocation-free: it runs once per ADMM iteration.
func TestBlockTriDiagSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	diag, _ := blockTriDiagFixture(rng, 8, 4, -0.6)
	f, err := FactorBlockTriDiag(diag, -0.6)
	if err != nil {
		t.Fatal(err)
	}
	b := NewVector(32)
	dst := NewVector(32)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Solve(b, dst) }); allocs != 0 {
		t.Fatalf("Solve allocates %.1f objects per call, want 0", allocs)
	}
}
