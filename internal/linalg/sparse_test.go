package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 50; iter++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			if rng.Float64() < 0.3 { // sparse fill
				m.Data[i] = rng.NormFloat64()
			}
		}
		c := NewCSRFromDense(m, 0)
		x := NewVector(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := NewVector(rows)
		m.MulVec(x, want)
		got := NewVector(rows)
		c.MulVec(x, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("iter %d: CSR MulVec mismatch at %d", iter, i)
			}
		}
		// Round trip.
		back := c.Dense()
		for i := range m.Data {
			if back.Data[i] != m.Data[i] {
				t.Fatalf("iter %d: Dense round trip mismatch", iter)
			}
		}
	}
}

func TestCSRThreshold(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 0.001)
	m.Set(1, 1, 2)
	c := NewCSRFromDense(m, 0.01)
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (small entry dropped)", c.NNZ())
	}
	if c.At(0, 1) != 0 || c.At(0, 0) != 1 || c.At(1, 1) != 2 {
		t.Fatal("At broken")
	}
}

func TestCSRShapePanics(t *testing.T) {
	c := NewCSRFromDense(identity(2), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MulVec(NewVector(3), NewVector(2))
}

func TestFactorModelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n, k := 10, 3
	f := NewMatrix(n, k)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	d := NewVector(n)
	for i := range d {
		d[i] = 0.1 + rng.Float64()
	}
	fm := &FactorModel{D: d, F: f}
	if fm.Dim() != n {
		t.Fatalf("Dim = %d", fm.Dim())
	}
	dense := fm.Dense()
	for trial := 0; trial < 20; trial++ {
		x := NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := NewVector(n)
		dense.MulVec(x, want)
		got := NewVector(n)
		fm.MulVec(x, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("FactorModel MulVec mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
		if qf := fm.QuadForm(x); math.Abs(qf-dense.QuadForm(x)) > 1e-9 {
			t.Fatalf("QuadForm mismatch")
		}
		if fm.QuadForm(x) < 0 {
			t.Fatal("factor model must be PSD")
		}
	}
}

func TestFactorModelNoFactors(t *testing.T) {
	fm := &FactorModel{D: Vector{2, 3}, F: NewMatrix(2, 0)}
	x := Vector{1, 1}
	dst := NewVector(2)
	fm.MulVec(x, dst)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("diagonal-only MulVec = %v", dst)
	}
	fm2 := &FactorModel{D: Vector{1}}
	dst2 := NewVector(1)
	fm2.MulVec(Vector{5}, dst2)
	if dst2[0] != 5 {
		t.Fatalf("nil F MulVec = %v", dst2)
	}
}

func TestTopEigenpairsDiagonal(t *testing.T) {
	// Diagonal matrix: eigenpairs known exactly.
	d := NewMatrix(5, 5)
	diag := []float64{10, 7, 3, 1, 0.5}
	for i, v := range diag {
		d.Set(i, i, v)
	}
	apply := func(x, dst Vector) { d.MulVec(x, dst) }
	vals, vecs := TopEigenpairs(apply, 5, 3, 300)
	for c, want := range []float64{10, 7, 3} {
		if math.Abs(vals[c]-want) > 1e-6 {
			t.Fatalf("eigenvalue %d = %v, want %v", c, vals[c], want)
		}
		// Eigenvector concentrates on coordinate c.
		if math.Abs(math.Abs(vecs.At(c, c))-1) > 1e-4 {
			t.Fatalf("eigenvector %d not axis-aligned: %v", c, vecs.At(c, c))
		}
	}
	// Orthonormality of the computed vectors.
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			var dot float64
			for i := 0; i < 5; i++ {
				dot += vecs.At(i, a) * vecs.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Fatalf("vecs not orthonormal: (%d,%d) = %v", a, b, dot)
			}
		}
	}
}

func TestTopEigenpairsLowRankRecovery(t *testing.T) {
	// M = u·uᵀ rank-1: the top eigenpair must capture it.
	rng := rand.New(rand.NewSource(53))
	n := 8
	u := NewVector(n)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	nrm2 := u.Dot(u)
	apply := func(x, dst Vector) {
		s := u.Dot(x)
		for i := range dst {
			dst[i] = s * u[i]
		}
	}
	vals, _ := TopEigenpairs(apply, n, 2, 200)
	if math.Abs(vals[0]-nrm2) > 1e-6*nrm2 {
		t.Fatalf("top eigenvalue %v, want %v", vals[0], nrm2)
	}
	if vals[1] > 1e-6*nrm2 {
		t.Fatalf("second eigenvalue %v should vanish for rank-1", vals[1])
	}
}

// At must binary-search correctly through rows of every shape: empty rows,
// single-entry rows, dense rows, and rows whose small entries were dropped by
// the construction tolerance.
func TestCSRAtBinarySearch(t *testing.T) {
	m := NewMatrix(5, 6)
	// Row 0: empty. Row 1: one entry. Row 2: dense. Row 3: entries at the
	// edges. Row 4: values straddling the drop tolerance.
	m.Set(1, 3, 2.5)
	for j := 0; j < 6; j++ {
		m.Set(2, j, float64(j+1))
	}
	m.Set(3, 0, -1)
	m.Set(3, 5, 7)
	m.Set(4, 1, 1e-9) // dropped by tol
	m.Set(4, 2, 0.5)
	m.Set(4, 4, -1e-9) // dropped by tol
	c := NewCSRFromDense(m, 1e-6)
	for i := 0; i < 5; i++ {
		for j := 0; j < 6; j++ {
			want := m.At(i, j)
			if math.Abs(want) <= 1e-6 {
				want = 0 // tol-dropped entries read back as zero
			}
			if got := c.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if c.RowPtr[1] != c.RowPtr[0] {
		t.Fatalf("row 0 should be empty, got %d entries", c.RowPtr[1]-c.RowPtr[0])
	}
	if got := c.NNZ(); got != 1+6+2+1 {
		t.Fatalf("NNZ = %d, want 10", got)
	}
}

func TestCSRMulVecTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 50; iter++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			if rng.Float64() < 0.3 {
				m.Data[i] = rng.NormFloat64()
			}
		}
		c := NewCSRFromDense(m, 0)
		x := NewVector(rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := NewVector(cols)
		m.MulVecT(x, want)
		got := NewVector(cols)
		c.MulVecT(x, got)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("iter %d: CSR MulVecT mismatch at %d: %v vs %v", iter, j, got[j], want[j])
			}
		}
	}
}

func TestCSRFromTriplets(t *testing.T) {
	// Unsorted input, duplicate coordinates (summed), a duplicate pair that
	// cancels to zero (dropped), and empty rows 0 and 3.
	is := []int{2, 1, 1, 2, 2, 1, 1}
	js := []int{4, 3, 0, 4, 1, 2, 2}
	vs := []float64{1.5, 2, -1, 0.5, 3, 4, -4}
	c := NewCSRFromTriplets(4, 5, is, js, vs)
	want := NewMatrix(4, 5)
	want.Set(1, 3, 2)
	want.Set(1, 0, -1)
	want.Set(2, 4, 2)
	want.Set(2, 1, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if got := c.At(i, j); got != want.At(i, j) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want.At(i, j))
			}
		}
	}
	if c.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (duplicates summed, zero sums dropped)", c.NNZ())
	}
	// Sorted-column invariant.
	for r := 0; r < c.Rows; r++ {
		for k := c.RowPtr[r] + 1; k < c.RowPtr[r+1]; k++ {
			if c.ColIdx[k-1] >= c.ColIdx[k] {
				t.Fatalf("row %d columns not strictly increasing", r)
			}
		}
	}
}

func TestCSRFromTripletsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 20; iter++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		var is, js []int
		var vs []float64
		dense := NewMatrix(rows, cols)
		for k := 0; k < rng.Intn(60); k++ {
			i, j, v := rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()
			is = append(is, i)
			js = append(js, j)
			vs = append(vs, v)
			dense.Add(i, j, v)
		}
		c := NewCSRFromTriplets(rows, cols, is, js, vs)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(c.At(i, j)-dense.At(i, j)) > 1e-12 {
					t.Fatalf("iter %d: At(%d,%d) = %v, want %v", iter, i, j, c.At(i, j), dense.At(i, j))
				}
			}
		}
	}
}

func TestCSRFromTripletsPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("length mismatch", func() { NewCSRFromTriplets(2, 2, []int{0}, []int{0, 1}, []float64{1}) })
	assertPanics("row out of range", func() { NewCSRFromTriplets(2, 2, []int{2}, []int{0}, []float64{1}) })
	assertPanics("col out of range", func() { NewCSRFromTriplets(2, 2, []int{0}, []int{-1}, []float64{1}) })
}
