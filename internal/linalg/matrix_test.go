package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD builds AᵀA + εI, which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n+3, n)
	s := a.AtA()
	s.AddDiag(0.5)
	return s
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(4)
	x := Vector{1, 2, 3, 4}
	y := NewVector(4)
	id.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x != x: %v", y)
		}
	}
}

func TestMatrixAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	if m.Row(1)[2] != 7 {
		t.Fatalf("Row alias broken")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 3, 5)
	mt := m.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	// (Aᵀ)ᵀ == A
	mtt := mt.T()
	for i, x := range m.Data {
		if mtt.Data[i] != x {
			t.Fatal("double transpose not identity")
		}
	}
}

func TestMulAgainstMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 6, 3)
	c := a.Mul(b)
	// Column j of C should equal A·(col j of B).
	for j := 0; j < 3; j++ {
		col := NewVector(6)
		for k := 0; k < 6; k++ {
			col[k] = b.At(k, j)
		}
		want := NewVector(4)
		a.MulVec(col, want)
		for i := 0; i < 4; i++ {
			if !almostEqual(c.At(i, j), want[i], 1e-12) {
				t.Fatalf("Mul mismatch at (%d,%d): %v vs %v", i, j, c.At(i, j), want[i])
			}
		}
	}
}

func TestMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 5, 3)
	x := NewVector(5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := NewVector(3)
	a.MulVecT(x, got)
	want := NewVector(3)
	a.T().MulVec(x, want)
	for i := range got {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("MulVecT mismatch: %v vs %v", got, want)
		}
	}
}

func TestAtA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 7, 4)
	got := a.AtA()
	want := a.T().Mul(a)
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("AtA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	if !got.IsSymmetric(1e-12) {
		t.Fatal("AtA not symmetric")
	}
}

func TestQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomSPD(rng, 5)
	x := NewVector(5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// xᵀMx must equal x·(Mx) and be positive for SPD M.
	mx := NewVector(5)
	m.MulVec(x, mx)
	want := x.Dot(mx)
	got := m.QuadForm(x)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("QuadForm = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Fatalf("SPD quad form should be positive, got %v", got)
	}
}

func TestAddDiagScaleAddMatrix(t *testing.T) {
	m := Identity(3)
	m.AddDiag(2)
	if m.At(0, 0) != 3 {
		t.Fatalf("AddDiag got %v", m.At(0, 0))
	}
	m.ScaleInPlace(2)
	if m.At(1, 1) != 6 {
		t.Fatalf("ScaleInPlace got %v", m.At(1, 1))
	}
	m.AddMatrix(1, Identity(3))
	if m.At(2, 2) != 7 {
		t.Fatalf("AddMatrix got %v", m.At(2, 2))
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randomSPD(rng, n)
		f, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xTrue := NewVector(n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := NewVector(n)
		a.MulVec(xTrue, b)
		x := NewVector(n)
		f.Solve(b, x)
		if d := x.Sub(xTrue).NormInf(); d > 1e-7 {
			t.Fatalf("n=%d: Cholesky solve error %v", n, d)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

// Property: Cholesky reconstruction L·Lᵀ == A for random SPD matrices.
func TestCholeskyReconstructionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		f, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		rec := f.l.Mul(f.l.T())
		for i := range rec.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8*(1+math.Abs(a.Data[i])) {
				t.Fatalf("iter %d: reconstruction mismatch", iter)
			}
		}
	}
}
