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

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestIdentityMulVec(t *testing.T) {
	id := identity(4)
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
	m.Set(1, 2, m.At(1, 2)+2)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	if m.Row(1)[2] != 7 {
		t.Fatalf("Row alias broken")
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
	transpose(a).MulVec(x, want)
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
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < a.Cols; j++ {
			var want float64
			for k := 0; k < a.Rows; k++ {
				want += a.At(k, i) * a.At(k, j)
			}
			if !almostEqual(got.At(i, j), want, 1e-12) {
				t.Fatalf("AtA mismatch at (%d,%d): %v vs %v", i, j, got.At(i, j), want)
			}
			if got.At(i, j) != got.At(j, i) {
				t.Fatal("AtA not symmetric")
			}
		}
	}
}

func TestAddDiagScaleAddMatrix(t *testing.T) {
	m := identity(3)
	m.AddDiag(2)
	if m.At(0, 0) != 3 || m.At(2, 2) != 3 || m.At(0, 1) != 0 {
		t.Fatalf("AddDiag got %v", m.Data)
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
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var rec float64
				for k := 0; k < n; k++ {
					rec += f.l.At(i, k) * f.l.At(j, k)
				}
				if math.Abs(rec-a.At(i, j)) > 1e-8*(1+math.Abs(a.At(i, j))) {
					t.Fatalf("iter %d: reconstruction mismatch", iter)
				}
			}
		}
	}
}
