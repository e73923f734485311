package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// CholeskyFactor holds the lower-triangular factor L with A = L·Lᵀ.
type CholeskyFactor struct {
	n int
	l *Matrix // lower triangular, including diagonal
}

// Cholesky computes the Cholesky factorization of the symmetric positive
// definite matrix a. Only the lower triangle of a is read.
func Cholesky(a *Matrix) (*CholeskyFactor, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.Data[j*n : j*n+j]
		for _, x := range lrowj {
			d -= x * x
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Data[i*n : i*n+j]
			for k, x := range lrowi {
				s -= x * lrowj[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	return &CholeskyFactor{n: n, l: l}, nil
}

// Dim returns the dimension of the factored matrix.
func (c *CholeskyFactor) Dim() int { return c.n }

// MulL multiplies the lower-triangular factor by a vector, returning L·x —
// the transform that turns i.i.d. standard normals into correlated Gaussian
// draws (x ~ N(0, I) ⇒ L·x ~ N(0, A)).
func (c *CholeskyFactor) MulL(x Vector) Vector {
	if len(x) != c.n {
		panic("linalg: Cholesky MulL dimension mismatch")
	}
	out := NewVector(c.n)
	for i := 0; i < c.n; i++ {
		row := c.l.Data[i*c.n : i*c.n+i+1]
		var s float64
		for k, v := range row {
			s += v * x[k]
		}
		out[i] = s
	}
	return out
}

// Solve solves A·x = b and writes the solution into dst (which may alias b).
// It returns dst.
func (c *CholeskyFactor) Solve(b, dst Vector) Vector {
	if len(b) != c.n || len(dst) != c.n {
		panic("linalg: Cholesky Solve dimension mismatch")
	}
	if &b[0] != &dst[0] {
		copy(dst, b)
	}
	n, l := c.n, c.l
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		s := dst[i]
		row := l.Data[i*n : i*n+i]
		for k, x := range row {
			s -= x * dst[k]
		}
		dst[i] = s / l.Data[i*n+i]
	}
	// Back solve Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * dst[k]
		}
		dst[i] = s / l.Data[i*n+i]
	}
	return dst
}
