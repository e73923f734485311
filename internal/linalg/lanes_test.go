package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBitIdenticalLaneKernel holds the lane kernel, with every assembly body
// this CPU has (lanes8x4 in one ZMM pass, and as two AVX2 lanes8x2 passes),
// at every stride shape its two callers use (a row-major matrix read down its
// columns, a sample-major operand broadcasting one of its own columns, and
// xoff = 0, one vector repeated), to the one-accumulator loop: lane l of
// vector p is Σ_j a[j·as+l]·x[j·xs+p·xoff] in ascending j from +0. The
// callers' shapes at n = 48, 50 and 144 are the risk matvec's (as = k,
// xs = 1, xoff = k or 0) and the covariance's over k = 50 padded to p = 56
// (as = xs = 56, xoff = 1). The callers' scalar bodies are held to their
// oracles by the TestBitIdentical* tests that run all three bodies.
func TestBitIdenticalLaneKernel(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2 lanes on this CPU")
	}
	logLaneBodies(t)
	rng := rand.New(rand.NewSource(33))
	negZero := math.Copysign(0, -1)
	type shape struct{ as, xs, xoff int }
	for _, n := range []int{1, 2, 3, 7, 8, 9, 48, 50, 144} {
		shapes := []shape{{8, 1, 8}, {11, 1, 3}, {16, 16, 1}, {9, 3, 0}, {8, 1, 0}}
		if n >= 48 {
			shapes = append(shapes, shape{n, 1, n}, shape{n, 1, 0}, shape{56, 56, 1})
		}
		for _, sh := range shapes {
			a := make([]float64, (n-1)*sh.as+8)
			x := make([]float64, (n-1)*sh.xs+3*sh.xoff+1)
			for i := range a {
				a[i] = rng.NormFloat64()
				if i%7 == 3 {
					a[i] = negZero
				}
			}
			for i := range x {
				x[i] = rng.NormFloat64()
				if i%5 == 1 {
					x[i] = negZero
				}
			}
			var want [32]float64
			for p := 0; p < 4; p++ {
				for l := 0; l < 8; l++ {
					var s float64
					for j := 0; j < n; j++ {
						s += float64(a[j*sh.as+l] * x[j*sh.xs+p*sh.xoff])
					}
					want[8*p+l] = s
				}
			}
			name := fmt.Sprintf("n=%d as=%d xs=%d xoff=%d", n, sh.as, sh.xs, sh.xoff)
			forEachLaneBody(t, func(body string) {
				if body == "scalar" {
					return // no kernel: the callers run their own loops
				}
				var two [16]float64
				var four [32]float64
				lanes8x2(a, sh.as, x, sh.xs, sh.xoff, n, &two)
				lanes8x4(a, sh.as, x, sh.xs, sh.xoff, n, &four)
				for i, w := range want {
					if i < 16 && math.Float64bits(two[i]) != math.Float64bits(w) {
						t.Fatalf("%s %s: lanes8x2 output %d = %v, want %v", body, name, i, two[i], w)
					}
					if math.Float64bits(four[i]) != math.Float64bits(w) {
						t.Fatalf("%s %s: lanes8x4 output %d = %v, want %v", body, name, i, four[i], w)
					}
				}
			})
		}
	}
}

// TestLaneKernelBoundsPanics: the assembly reads unchecked, so the wrappers
// must refuse operands too short for the last term.
func TestLaneKernelBoundsPanics(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2 lanes on this CPU")
	}
	var out [32]float64
	two := (*[16]float64)(out[:16])
	for name, fn := range map[string]func(){
		"short-a":         func() { lanes8x2(make([]float64, 2*4+7), 4, make([]float64, 3), 1, 0, 3, two) },
		"short-x":         func() { lanes8x2(make([]float64, 2*4+8), 4, make([]float64, 3), 1, 1, 3, two) },
		"short-x-fourth":  func() { lanes8x4(make([]float64, 2*4+8), 4, make([]float64, 5), 1, 1, 3, &out) },
		"n=0":             func() { lanes8x4(make([]float64, 8), 0, make([]float64, 1), 0, 0, 0, &out) },
		"negative":        func() { lanes8x2(make([]float64, 64), -1, make([]float64, 8), 1, 0, 2, two) },
		"negative-offset": func() { lanes8x4(make([]float64, 64), 8, make([]float64, 64), 1, -1, 2, &out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
