package linalg

import "errors"

// BlockTriDiagFactor is the factorization of a symmetric positive definite
// block-tridiagonal matrix
//
//	K = [ D_0   sI              ]
//	    [ sI    D_1   sI        ]
//	    [       …     …     sI  ]
//	    [             sI    D_h ]
//
// with h dense n×n diagonal blocks and constant scalar-identity off-diagonal
// blocks s·I — exactly the shape of the reduced MPO KKT system, where the
// diagonal carries the per-period risk blocks and the off-diagonal the churn
// coupling. The factorization is the block Schur recursion
//
//	S_0 = D_0,   S_τ = D_τ − s²·S_{τ−1}⁻¹,
//
// with each Schur complement S_τ held as a dense Cholesky factor. Factoring
// costs O(h·n³) and each Solve O(h·n²), versus O((hn)³) and O((hn)²) for the
// dense factorization of the same matrix — the h² / h savings that let the
// optimizer scale to hundreds of markets over long horizons.
type BlockTriDiagFactor struct {
	n, h int
	off  float64
	chol []*CholeskyFactor // Cholesky of each Schur complement S_τ
	tmp  Vector            // Solve scratch; makes Solve single-threaded
}

// FactorBlockTriDiag factors the block-tridiagonal matrix with the given
// diagonal blocks (all n×n) and off-diagonal scalar off. The diag slice is
// consumed: blocks are overwritten with their Schur complements and released
// as the recursion passes them, so peak memory stays near one extra n×n
// block beyond the h Cholesky factors. Returns ErrNotPositiveDefinite when a
// Schur complement is not SPD (the caller's matrix was not).
func FactorBlockTriDiag(diag []*Matrix, off float64) (*BlockTriDiagFactor, error) {
	h := len(diag)
	if h == 0 {
		return nil, errors.New("linalg: FactorBlockTriDiag with no blocks")
	}
	n := diag[0].Rows
	for _, d := range diag {
		if d.Rows != n || d.Cols != n {
			return nil, errors.New("linalg: FactorBlockTriDiag block shape mismatch")
		}
	}
	f := &BlockTriDiagFactor{n: n, h: h, off: off, chol: make([]*CholeskyFactor, h), tmp: NewVector(n)}
	off2 := off * off
	var inv *Matrix // S_{τ−1}⁻¹, rebuilt per step (S⁻¹ is symmetric: row j == column j)
	for τ := 0; τ < h; τ++ {
		s := diag[τ]
		if τ > 0 && off2 != 0 {
			for i, v := range inv.Data {
				s.Data[i] -= off2 * v
			}
		}
		c, err := Cholesky(s)
		if err != nil {
			return nil, err
		}
		f.chol[τ] = c
		diag[τ] = nil // the Schur block is dead once factored
		if τ+1 < h && off2 != 0 {
			if inv == nil {
				inv = NewMatrix(n, n)
			}
			// Invert S_τ by n unit-vector solves, one row of inv (== one
			// column, by symmetry) each.
			for j := 0; j < n; j++ {
				row := inv.Data[j*n : (j+1)*n]
				for i := range row {
					row[i] = 0
				}
				row[j] = 1
				c.Solve(row, row)
			}
		}
	}
	return f, nil
}

// Dim returns the stacked dimension n·h.
func (f *BlockTriDiagFactor) Dim() int { return f.n * f.h }

// Solve solves K·x = b into dst (which may alias b) by block forward and
// backward substitution and returns dst. It reuses internal scratch, so a
// factor must not run concurrent Solves.
func (f *BlockTriDiagFactor) Solve(b, dst Vector) Vector {
	n, h := f.n, f.h
	if len(b) != n*h || len(dst) != n*h {
		panic("linalg: BlockTriDiagFactor Solve dimension mismatch")
	}
	if &b[0] != &dst[0] {
		copy(dst, b)
	}
	// Forward: w_τ = b_τ − s·S_{τ−1}⁻¹·w_{τ−1}.
	if f.off != 0 {
		for τ := 1; τ < h; τ++ {
			f.chol[τ-1].Solve(dst[(τ-1)*n:τ*n], f.tmp)
			cur := dst[τ*n : (τ+1)*n]
			for i, v := range f.tmp {
				cur[i] -= f.off * v
			}
		}
	}
	// Backward: x_h = S_h⁻¹·w_h, then x_τ = S_τ⁻¹·(w_τ − s·x_{τ+1}).
	last := dst[(h-1)*n:]
	f.chol[h-1].Solve(last, last)
	for τ := h - 2; τ >= 0; τ-- {
		cur := dst[τ*n : (τ+1)*n]
		if f.off != 0 {
			next := dst[(τ+1)*n : (τ+2)*n]
			for i, v := range next {
				cur[i] -= f.off * v
			}
		}
		f.chol[τ].Solve(cur, cur)
	}
	return dst
}
