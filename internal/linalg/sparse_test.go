package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// csrFromDense builds the CSR of m's nonzero entries through the triplet
// constructor.
func csrFromDense(m *Matrix) *CSR {
	var is, js []int
	var vs []float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); v != 0 {
				is, js, vs = append(is, i), append(js, j), append(vs, v)
			}
		}
	}
	return NewCSRFromTriplets(m.Rows, m.Cols, is, js, vs)
}

// expand is the dense matrix c stands for.
func expand(c *CSR) *Matrix {
	m := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			m.Set(i, c.ColIdx[k], c.Val[k])
		}
	}
	return m
}

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
		c := csrFromDense(m)
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
		back := expand(c)
		for i := range m.Data {
			if back.Data[i] != m.Data[i] {
				t.Fatalf("iter %d: round trip mismatch", iter)
			}
		}
	}
}

func TestCSRShapePanics(t *testing.T) {
	c := csrFromDense(identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MulVec(NewVector(3), NewVector(2))
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
		c := csrFromDense(m)
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
	got := expand(c)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	if len(c.Val) != 4 {
		t.Fatalf("%d stored entries, want 4 (duplicates summed, zero sums dropped)", len(c.Val))
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
			dense.Set(i, j, dense.At(i, j)+v)
		}
		got := expand(NewCSRFromTriplets(rows, cols, is, js, vs))
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(got.At(i, j)-dense.At(i, j)) > 1e-12 {
					t.Fatalf("iter %d: (%d,%d) = %v, want %v", iter, i, j, got.At(i, j), dense.At(i, j))
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
