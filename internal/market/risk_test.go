package market

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestSparseCovarianceApproximatesDense(t *testing.T) {
	c := CatalogConfig{Seed: 4, NumTypes: 12, Hours: 24 * 30, Groups: 3}.Generate()
	tt, window := 24*25, 24*14
	dense := c.CovarianceMatrix(tt, window)
	sparse := c.SparseCovariance(tt, window, 0.01)
	if sparse.NNZ() >= dense.Rows*dense.Cols {
		t.Fatalf("sparse covariance not sparse: %d nnz of %d", sparse.NNZ(), dense.Rows*dense.Cols)
	}
	// Quadratic forms should agree to within the thresholding error.
	x := linalg.NewVector(c.Len())
	for i := range x {
		x[i] = 1.0 / float64(c.Len())
	}
	qd := x.Dot(dense.MulVec(x, linalg.NewVector(c.Len())))
	qs := x.Dot(sparse.MulVec(x, linalg.NewVector(c.Len())))
	if math.Abs(qd-qs) > 0.05*math.Abs(qd)+1e-9 {
		t.Fatalf("quad forms diverge: dense %v vs sparse %v", qd, qs)
	}
}

func TestFactorCovarianceApproximatesDense(t *testing.T) {
	// Group-structured catalog: a few factors should capture most
	// covariance.
	c := CatalogConfig{Seed: 6, NumTypes: 12, Hours: 24 * 30, Groups: 3}.Generate()
	tt, window := 24*25, 24*14
	dense := c.CovarianceMatrix(tt, window)
	fm := c.FactorCovariance(tt, window, 3)
	if fm.Dim() != c.Len() {
		t.Fatalf("Dim = %d", fm.Dim())
	}
	// Compare quadratic forms on a few test vectors: diagonal is matched by
	// construction and the leading group structure by the factors.
	for trial := 0; trial < 5; trial++ {
		x := linalg.NewVector(c.Len())
		for i := range x {
			if (i+trial)%3 == 0 {
				x[i] = 0.2
			}
		}
		qd := x.Dot(dense.MulVec(x, linalg.NewVector(c.Len())))
		qf := x.Dot(fm.MulVec(x, linalg.NewVector(c.Len())))
		if qf < 0 {
			t.Fatal("factor model not PSD")
		}
		if qd > 1e-9 && math.Abs(qd-qf) > 0.5*qd {
			t.Fatalf("trial %d: factor model too far from dense: %v vs %v", trial, qf, qd)
		}
	}
}

func TestFactorCovarianceShortHistory(t *testing.T) {
	c := TestbedCatalog(1, 24)
	fm := c.FactorCovariance(0, 24, 2)
	if fm.Dim() != c.Len() {
		t.Fatalf("Dim = %d", fm.Dim())
	}
	if fm.F.Cols != 0 {
		t.Fatalf("short history should yield diagonal-only model, got %d factors", fm.F.Cols)
	}
	for _, d := range fm.D {
		if d <= 0 {
			t.Fatal("diagonal must be positive")
		}
	}
}

func TestFactorCovarianceKClamped(t *testing.T) {
	c := TestbedCatalog(2, 24*20)
	fm := c.FactorCovariance(24*15, 24*10, 99) // k > n must clamp
	if fm.F.Cols > c.Len() {
		t.Fatalf("k not clamped: %d factors for %d markets", fm.F.Cols, c.Len())
	}
}
