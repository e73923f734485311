package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBitIdenticalLaneKernel holds the lane kernel, at every stride shape
// its two callers use (a row-major matrix read down its columns, a
// sample-major operand broadcasting one of its own columns), to the
// one-accumulator loop: lane l of vector p is Σ_j a[j·as+l]·x[j·xs+p·xoff]
// in ascending j from +0. The callers' scalar bodies are held to their
// oracles by the TestBitIdentical* tests that run both bodies.
func TestBitIdenticalLaneKernel(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2 lanes on this CPU")
	}
	rng := rand.New(rand.NewSource(33))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 3, 7, 8, 9, 50, 144} {
		for _, sh := range []struct{ as, xs, xoff int }{{8, 1, 8}, {11, 1, 3}, {16, 16, 1}, {9, 3, 0}} {
			a := make([]float64, (n-1)*sh.as+8)
			x := make([]float64, (n-1)*sh.xs+sh.xoff+1)
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
			var want [16]float64
			for p := 0; p < 2; p++ {
				for l := 0; l < 8; l++ {
					var s float64
					for j := 0; j < n; j++ {
						s += float64(a[j*sh.as+l] * x[j*sh.xs+p*sh.xoff])
					}
					want[8*p+l] = s
				}
			}
			name := fmt.Sprintf("n=%d as=%d xs=%d xoff=%d", n, sh.as, sh.xs, sh.xoff)
			var two [16]float64
			var one [8]float64
			lanes8x2(a, sh.as, x, sh.xs, sh.xoff, n, &two)
			lanes8x1(a, sh.as, x, sh.xs, n, &one)
			for i, w := range want {
				if math.Float64bits(two[i]) != math.Float64bits(w) {
					t.Fatalf("%s: lanes8x2 output %d = %v, want %v", name, i, two[i], w)
				}
				if i < 8 && math.Float64bits(one[i]) != math.Float64bits(w) {
					t.Fatalf("%s: lanes8x1 output %d = %v, want %v", name, i, one[i], w)
				}
			}
		}
	}
}

// TestLaneKernelBoundsPanics: the assembly reads unchecked, so the wrappers
// must refuse operands too short for the last term.
func TestLaneKernelBoundsPanics(t *testing.T) {
	if !cpuHasLanes() {
		t.Skip("no AVX2 lanes on this CPU")
	}
	var out [16]float64
	for name, fn := range map[string]func(){
		"short-a":  func() { lanes8x2(make([]float64, 2*4+7), 4, make([]float64, 3), 1, 0, 3, &out) },
		"short-x":  func() { lanes8x2(make([]float64, 2*4+8), 4, make([]float64, 3), 1, 1, 3, &out) },
		"n=0":      func() { lanes8x1(make([]float64, 8), 0, make([]float64, 1), 0, 0, (*[8]float64)(out[:8])) },
		"negative": func() { lanes8x2(make([]float64, 64), -1, make([]float64, 8), 1, 0, 2, &out) },
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
