package solver

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// FuzzBoxBandProject checks the projection invariants (feasibility and
// idempotence) on arbitrary inputs, and that every output equals the plain
// pass-per-query bisection (oracleProject) bit for bit — for the input and
// for a nearby one projected next on the same set, which starts from the
// guess the first left behind.
func FuzzBoxBandProject(f *testing.F) {
	f.Add(0.5, 1.5, 0.8, -2.0, 3.0, 0.2)
	f.Add(0.0, 1.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 1.0, 0.3, 9.0, -9.0, 4.0)
	f.Fuzz(func(t *testing.T, sumLo, sumHi, cap, x0, x1, x2 float64) {
		for _, v := range []float64{sumLo, sumHi, cap, x0, x1, x2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if cap <= 0 {
			t.Skip()
		}
		if sumHi < sumLo {
			sumLo, sumHi = sumHi, sumLo
		}
		lo := linalg.NewVector(3)
		hi := linalg.Vector{cap, cap, cap}
		set := NewBoxBand(lo, hi, sumLo, sumHi)
		if !set.Feasible() {
			t.Skip()
		}
		x := linalg.Vector{x0, x1, x2}
		checkProjectBits(t, "fuzz", set, x)
		checkProjectBits(t, "fuzz, drifted", set, linalg.Vector{x0 + 1e-3*x1, x1 - 1e-3*x2, x2 + 1e-6*cap})
		set.Project(x)
		var sum float64
		for i, v := range x {
			if v < lo[i]-1e-6 || v > hi[i]+1e-6 {
				t.Fatalf("projection outside box: %v", x)
			}
			sum += v
		}
		if sum < sumLo-1e-5 || sum > sumHi+1e-5 {
			t.Fatalf("projection outside band: sum %v not in [%v,%v]", sum, sumLo, sumHi)
		}
		y := x.Clone()
		set.Project(y)
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-6 {
				t.Fatalf("projection not idempotent")
			}
		}
	})
}
