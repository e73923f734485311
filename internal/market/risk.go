package market

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// SparseCovariance estimates M like CovarianceMatrix and then drops entries
// with magnitude ≤ tol·max|M| — the cross-group covariances are near zero,
// so the result has O(N·groupsize) nonzeros and the optimizer's risk matvec
// becomes near-linear in the market count.
func (c *Catalog) SparseCovariance(t, window int, tol float64) *linalg.CSR {
	dense := c.CovarianceMatrix(t, window)
	var maxAbs float64
	for _, v := range dense.Data {
		if v > maxAbs {
			maxAbs = v
		} else if -v > maxAbs {
			maxAbs = -v
		}
	}
	if tol <= 0 {
		tol = 0.01
	}
	return linalg.NewCSRFromDense(dense, tol*maxAbs)
}

// FactorCovariance estimates a k-factor model M ≈ diag(D) + F·Fᵀ from the
// failure-probability series over the trailing window: the k leading
// principal components of the sample covariance become the factor loadings
// and the diagonal residual becomes the idiosyncratic variance. Applying the
// model costs O(N·k) — the standard structured-covariance trick from
// portfolio optimization, matching the group structure of spot-market
// revocations (one factor per correlated demand pool).
func (c *Catalog) FactorCovariance(t, window, k int) *linalg.FactorModel {
	n := c.Len()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	x := c.failWindows(all, t, window)
	if x == nil || k < 1 {
		// Not enough history: diagonal prior, no factors.
		return &linalg.FactorModel{D: c.diagonalPrior(t), F: linalg.NewMatrix(n, 0)}
	}
	if k > n {
		k = n
	}
	// x becomes the centred data, one market per row (n × rows).
	rows := x.Cols
	for j := 0; j < n; j++ {
		stats.Center(x.Row(j))
	}
	inv := 1 / float64(rows-1)
	// Covariance applied matrix-free: C·v = X(Xᵀ·v)/(rows−1).
	tmp := linalg.NewVector(rows)
	apply := func(v, dst linalg.Vector) {
		x.MulVecT(v, tmp)
		x.MulVec(tmp, dst)
		dst.Scale(inv)
	}
	vals, vecs := linalg.TopEigenpairs(apply, n, k, 100)
	// Loadings: column c of F is sqrt(λ_c)·v_c.
	f := linalg.NewMatrix(n, k)
	for c2 := 0; c2 < k; c2++ {
		s := vals[c2]
		if s < 0 {
			s = 0
		}
		scale := math.Sqrt(s)
		for i := 0; i < n; i++ {
			f.Set(i, c2, scale*vecs.At(i, c2))
		}
	}
	// Idiosyncratic diagonal: total variance minus explained, floored.
	d := linalg.NewVector(n)
	for j := 0; j < n; j++ {
		var total float64
		for _, v := range x.Row(j) {
			total += v * v
		}
		total *= inv
		var explained float64
		for c2 := 0; c2 < k; c2++ {
			explained += f.At(j, c2) * f.At(j, c2)
		}
		resid := total - explained
		if resid < 1e-6 {
			resid = 1e-6
		}
		d[j] = resid
	}
	return &linalg.FactorModel{D: d, F: f}
}
