// Package linalg provides the dense linear-algebra substrate used by the
// SpotWeb optimizer and predictors: vectors, row-major matrices, Cholesky
// factorizations, and triangular solves.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: every routine the QP solvers and spline fits need
// is here, and nothing else. All matrices are dense and row-major.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Dot returns the inner product ⟨v, w⟩. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// NormInf returns the max-norm ‖v‖∞.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Scale sets v ← a·v and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Sub returns a new vector v − w.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Clamp sets each element of v into [lo, hi] element-wise.
func Clamp(v, lo, hi Vector) {
	for i := range v {
		if v[i] < lo[i] {
			v[i] = lo[i]
		} else if v[i] > hi[i] {
			v[i] = hi[i]
		}
	}
}
