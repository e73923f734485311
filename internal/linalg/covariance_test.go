package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// pairwiseCovarianceMatrix is the oracle Samples.Covariance must match bit for
// bit: the scalar stats.Covariance applied to every pair, each call
// recomputing both means. It leaves the series untouched.
func pairwiseCovarianceMatrix(series [][]float64) []float64 {
	n := len(series)
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			c := stats.Covariance(series[i], series[j])
			out[i*n+j] = c
			out[j*n+i] = c
		}
	}
	return out
}

// centredSamples stores each series centred on its stats.Mean, as
// Catalog.CovarianceMatrix does.
func centredSamples(series [][]float64, w int) *Samples {
	o := NewSamples(w, len(series))
	for r, s := range series {
		o.SetCentred(r, s, stats.Mean(s))
	}
	return o
}

// checkCovarianceBits compares the covariance of the centred series with the
// oracle, with the lanes and with the scalar body.
func checkCovarianceBits(t *testing.T, series [][]float64, w int) {
	t.Helper()
	want := pairwiseCovarianceMatrix(series)
	n := len(series)
	forEachLaneBody(t, func(body string) {
		got := centredSamples(series, w).Covariance()
		if got.Rows != n || got.Cols != n {
			t.Fatalf("%s: shape %dx%d, want n=%d", body, got.Rows, got.Cols, n)
		}
		for k := range want {
			// Which NaN an operation on two NaNs returns (sign, payload) is
			// the hardware's choice by operand order, which the compiler
			// picks: any NaN matches any NaN, everything else must match in
			// every bit.
			if g := got.Data[k]; math.Float64bits(g) != math.Float64bits(want[k]) && !(math.IsNaN(g) && math.IsNaN(want[k])) {
				t.Fatalf("%s: entry (%d,%d) of n=%d w=%d: got %x want %x", body, k/n, k%n, n, w,
					math.Float64bits(g), math.Float64bits(want[k]))
			}
		}
	})
}

func TestBitIdenticalCovarianceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 50, 144, 288} {
		for _, w := range []int{2, 3, 336} {
			series := make([][]float64, n)
			for i := range series {
				series[i] = make([]float64, w)
				if i%3 == 1 {
					continue // identically zero, like an on-demand market
				}
				for k := range series[i] {
					series[i][k] = 0.2 * rng.Float64()
				}
			}
			checkCovarianceBits(t, series, w)
		}
	}
	// Signed zeros, negatives and non-finite samples, placed so that they meet
	// in a diagonal chunk, an off-diagonal chunk, the padding lanes and the
	// odd last row (n = 2, 3, 5, 9, 11): a lane is still the scalar's one
	// accumulator, so it carries the scalar's bits, NaN and −0 included.
	negZero := math.Copysign(0, -1)
	special := [][]float64{
		{negZero, negZero, negZero, negZero},
		{-1.5, 2.25, -0.125, negZero},
		{math.Inf(1), 1, 2, 3},
		{1, math.Inf(-1), 2, 3},
		{1, 2, math.NaN(), 3},
	}
	for _, n := range []int{2, 3, 5, 9, 11} {
		for rot := 0; rot < len(special); rot++ {
			series := make([][]float64, n)
			for i := range series {
				series[i] = special[(i+rot)%len(special)]
			}
			checkCovarianceBits(t, series, 4)
		}
	}
	// Fewer than two samples: the zero matrix, as the scalar returns 0.
	checkCovarianceBits(t, [][]float64{{3}, {4}, {5}}, 1)
	checkCovarianceBits(t, nil, 5)
}

// FuzzCovarianceKernel feeds arbitrary finite samples through the centred
// Samples and their Covariance, with the lanes and with the scalar body, and
// through the pairwise oracle: every entry must agree in
// every bit for any series count and window.
func FuzzCovarianceKernel(f *testing.F) {
	f.Add(uint8(5), uint8(7), []byte("spotweb revocation windows"))
	f.Add(uint8(1), uint8(2), []byte{})
	f.Add(uint8(9), uint8(3), []byte{0xff, 0x00, 0x80, 0x7f, 0x01})
	f.Fuzz(func(t *testing.T, n, w uint8, data []byte) {
		nn, ww := int(n%19), int(w%40)
		if nn == 0 || ww == 0 {
			return
		}
		series := make([][]float64, nn)
		pos := 0
		for i := range series {
			series[i] = make([]float64, ww)
			for k := range series[i] {
				var buf [8]byte
				if pos < len(data) {
					pos += copy(buf[:], data[pos:])
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
					v = float64(buf[0]) / 255 // NaN ≠ NaN would fail the comparison, not the kernel
				}
				series[i][k] = v
			}
		}
		checkCovarianceBits(t, series, ww)
	})
}
