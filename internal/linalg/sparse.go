package linalg

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. The covariance of revocation
// dynamics across markets is sparse in practice (markets correlate within
// demand groups and barely across them), and exploiting that keeps the
// optimizer's per-iteration cost near-linear in the number of markets.
//
// Invariant: within each row, ColIdx is strictly increasing. Every
// constructor in this package maintains it (At relies on it for binary
// search); code building a CSR by hand must too.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int
	Val        []float64
}

// NewCSRFromDense converts a dense matrix, dropping entries with
// |value| ≤ tol.
func NewCSRFromDense(m *Matrix, tol float64) *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if v > tol || v < -tol {
				c.ColIdx = append(c.ColIdx, j)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = len(c.Val)
	}
	return c
}

// NewCSRFromTriplets builds a CSR from coordinate-form (row, col, value)
// triplets in any order. Duplicate coordinates are summed; entries whose sum
// is exactly zero are dropped. Column indices come out sorted within each
// row, preserving the binary-search invariant.
func NewCSRFromTriplets(rows, cols int, is, js []int, vs []float64) *CSR {
	if len(is) != len(js) || len(is) != len(vs) {
		panic(fmt.Sprintf("linalg: triplet slice lengths differ: %d/%d/%d", len(is), len(js), len(vs)))
	}
	// Counting sort by row: stable, O(nnz + rows).
	count := make([]int, rows+1)
	for t, i := range is {
		if i < 0 || i >= rows || js[t] < 0 || js[t] >= cols {
			panic(fmt.Sprintf("linalg: triplet (%d, %d) outside %dx%d", i, js[t], rows, cols))
		}
		count[i+1]++
	}
	for r := 0; r < rows; r++ {
		count[r+1] += count[r]
	}
	colIdx := make([]int, len(is))
	val := make([]float64, len(is))
	next := make([]int, rows)
	copy(next, count[:rows])
	for t, i := range is {
		p := next[i]
		next[i]++
		colIdx[p] = js[t]
		val[p] = vs[t]
	}
	c := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		lo, hi := count[r], count[r+1]
		sort.Sort(colValSlice{colIdx[lo:hi], val[lo:hi]})
		// Compact duplicate columns, dropping exact-zero sums.
		for k := lo; k < hi; {
			j, s := colIdx[k], val[k]
			for k++; k < hi && colIdx[k] == j; k++ {
				s += val[k]
			}
			if s != 0 {
				c.ColIdx = append(c.ColIdx, j)
				c.Val = append(c.Val, s)
			}
		}
		c.RowPtr[r+1] = len(c.Val)
	}
	return c
}

// colValSlice sorts a row segment's (column, value) pairs by column.
type colValSlice struct {
	col []int
	val []float64
}

func (s colValSlice) Len() int           { return len(s.col) }
func (s colValSlice) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s colValSlice) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// Dim returns c's row count, as (*Matrix).Dim.
func (c *CSR) Dim() int { return c.Rows }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Val) }

// At returns element (i, j) by binary search over the row's sorted column
// indices — O(log nnz(row)), down from the linear scan this used to be.
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ColIdx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.RowPtr[i+1] && c.ColIdx[lo] == j {
		return c.Val[lo]
	}
	return 0
}

// MulVec computes dst = C·x and returns dst. Signature matches
// (*Matrix).MulVec so either can back the optimizer's risk term.
func (c *CSR) MulVec(x, dst Vector) Vector {
	if len(x) != c.Cols || len(dst) != c.Rows {
		panic(fmt.Sprintf("linalg: CSR MulVec shape mismatch %d/%d vs %dx%d",
			len(x), len(dst), c.Rows, c.Cols))
	}
	for i := 0; i < c.Rows; i++ {
		var s float64
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Val[k] * x[c.ColIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// MulVecT computes dst = Cᵀ·x and returns dst — O(nnz), the transpose
// counterpart of MulVec, so a CSR constraint matrix can back both residual
// matvecs (Ax and Aᵀy) of the ADMM solver without a dense transpose.
func (c *CSR) MulVecT(x, dst Vector) Vector {
	if len(x) != c.Rows || len(dst) != c.Cols {
		panic(fmt.Sprintf("linalg: CSR MulVecT shape mismatch %d/%d vs %dx%d",
			len(x), len(dst), c.Rows, c.Cols))
	}
	dst.Zero()
	for i := 0; i < c.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			dst[c.ColIdx[k]] += c.Val[k] * xi
		}
	}
	return dst
}

// Dense expands the CSR back to a dense matrix.
func (c *CSR) Dense() *Matrix {
	m := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			m.Set(i, c.ColIdx[k], c.Val[k])
		}
	}
	return m
}

// FactorModel is a low-rank-plus-diagonal symmetric operator
// M = diag(D) + F·Fᵀ with F of shape n×k — the standard structured
// covariance in portfolio optimization. Applying it costs O(nk) instead of
// O(n²).
type FactorModel struct {
	D Vector  // idiosyncratic variances, length n
	F *Matrix // factor loadings, n×k
}

// factorStackMax is the factor count up to which FactorModel.MulVec keeps its
// k-vector on the stack.
const factorStackMax = 16

// Dim returns n.
func (f *FactorModel) Dim() int { return len(f.D) }

// MulVec computes dst = (diag(D) + FFᵀ)·x and returns dst.
func (f *FactorModel) MulVec(x, dst Vector) Vector {
	n := len(f.D)
	if len(x) != n || len(dst) != n {
		panic("linalg: FactorModel MulVec shape mismatch")
	}
	var k int
	var load []float64 // F row-major, n×k
	if f.F != nil {
		k, load = f.F.Cols, f.F.Data
	}
	// Fᵀx lives on the stack for the usual handful of factors: MulVec runs
	// every solver iteration, from several horizon periods at once, so it may
	// neither allocate nor share scratch. The loops below are the bodies of
	// Matrix.MulVecT and Matrix.MulVec written out, so that a nil F (no
	// factors) needs no branch and D's term joins the same pass.
	var buf [factorStackMax]float64
	tmp := buf[:]
	if k > factorStackMax {
		tmp = make([]float64, k)
	}
	tmp = tmp[:k]
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for c, a := range load[i*k : (i+1)*k] {
			tmp[c] += a * xi
		}
	}
	for i := range dst {
		var s float64
		for c, t := range tmp {
			s += load[i*k+c] * t
		}
		dst[i] = s + f.D[i]*x[i]
	}
	return dst
}

// Dense expands the factor model to a dense matrix.
func (f *FactorModel) Dense() *Matrix {
	n := len(f.D)
	m := NewMatrix(n, n)
	if f.F != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for c := 0; c < f.F.Cols; c++ {
					s += f.F.At(i, c) * f.F.At(j, c)
				}
				m.Set(i, j, s)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, f.D[i])
	}
	return m
}

// TopEigenpairs extracts the k leading eigenpairs of a symmetric PSD
// operator by power iteration with deflation — enough for the factor-model
// covariance estimation (k small). apply must compute dst = M·x; n is the
// dimension. Returns eigenvalues (descending) and the corresponding
// orthonormal eigenvectors as columns of an n×k matrix.
func TopEigenpairs(apply func(x, dst Vector), n, k, iters int) (Vector, *Matrix) {
	if iters <= 0 {
		iters = 100
	}
	vals := NewVector(k)
	vecs := NewMatrix(n, k)
	tmp := NewVector(n)
	for c := 0; c < k; c++ {
		// Deterministic start, different per component.
		v := NewVector(n)
		seed := uint64(c)*0x9e3779b97f4a7c15 + 0x2545F4914F6CDD1D
		for i := range v {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			v[i] = float64(seed%2000)/1000 - 1
		}
		orthonormalize(v, vecs, c)
		lambda := 0.0
		for it := 0; it < iters; it++ {
			apply(v, tmp)
			// Deflation: for a symmetric operator, restricting the iterate
			// to the orthogonal complement of the found eigenvectors makes
			// power iteration converge to the next eigenpair.
			orthonormalizeInto(tmp, vecs, c)
			nrm := tmp.Norm2()
			if nrm == 0 {
				break
			}
			lambda = nrm
			copy(v, tmp)
			v.Scale(1 / nrm)
		}
		vals[c] = lambda
		for i := 0; i < n; i++ {
			vecs.Set(i, c, v[i])
		}
	}
	return vals, vecs
}

// orthonormalize projects out the first c columns of basis from v and
// normalizes.
func orthonormalize(v Vector, basis *Matrix, c int) {
	orthonormalizeInto(v, basis, c)
	if n := v.Norm2(); n > 0 {
		v.Scale(1 / n)
	} else {
		v[0] = 1
	}
}

// orthonormalizeInto subtracts the projections of v onto the first c basis
// columns in place (no normalization).
func orthonormalizeInto(v Vector, basis *Matrix, c int) {
	n := len(v)
	for p := 0; p < c; p++ {
		var dot float64
		for i := 0; i < n; i++ {
			dot += v[i] * basis.At(i, p)
		}
		for i := 0; i < n; i++ {
			v[i] -= dot * basis.At(i, p)
		}
	}
}
