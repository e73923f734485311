package linalg

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix: the ADMM solver's constraint matrix,
// whose Ax and Aᵀy matvecs then cost O(nnz).
//
// Invariant: within each row, ColIdx is strictly increasing.
// NewCSRFromTriplets maintains it; code building a CSR by hand must too.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int
	Val        []float64
}

// NewCSRFromTriplets builds a CSR from coordinate-form (row, col, value)
// triplets in any order. Duplicate coordinates are summed; entries whose sum
// is exactly zero are dropped. Column indices come out sorted within each
// row, preserving the CSR invariant.
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

// MulVec computes dst = C·x and returns dst.
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
// counterpart of MulVec, so a CSR constraint matrix backs both residual
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
