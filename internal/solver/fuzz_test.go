package solver

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// FuzzRuizEquilibrate checks the scaling invariants on arbitrary 2-variable
// QPs: the computed scalings are positive and finite, bound ordering
// survives scaling, and Unscale is the exact inverse on the diagonal (the
// solver relies on x = D·x̂ mapping the scaled solution back).
func FuzzRuizEquilibrate(f *testing.F) {
	f.Add(1.0, 0.2, 2.0, -0.5, 1.5, 3.0)
	f.Add(100.0, 0.0, 1e-3, 0.0, 0.0, 1.0)
	f.Add(0.02, 0.01, 5.0, -1.0, -2.0, 0.5)
	f.Fuzz(func(t *testing.T, p00, p01, p11, q0, q1, bound float64) {
		for _, v := range []float64{p00, p01, p11, q0, q1, bound} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				t.Skip()
			}
		}
		// Force P symmetric PSD-ish: diagonal dominance over the coupling.
		d := math.Abs(p01) + 1e-6
		pm := linalg.NewMatrix(2, 2)
		pm.Set(0, 0, math.Abs(p00)+d)
		pm.Set(1, 1, math.Abs(p11)+d)
		pm.Set(0, 1, p01)
		pm.Set(1, 0, p01)
		a := linalg.NewMatrix(3, 2)
		a.Set(0, 0, 1)
		a.Set(1, 1, 1)
		a.Set(2, 0, 1)
		a.Set(2, 1, 1)
		lo := linalg.Vector{0, 0, -math.Abs(bound)}
		hi := linalg.Vector{math.Abs(bound) + 1, math.Abs(bound) + 1, math.Abs(bound) + 2}
		prob := &Problem{P: pm, Q: linalg.Vector{q0, q1}, A: a, L: lo, U: hi}
		scaled, sc := RuizEquilibrate(prob, 10)

		for i, v := range sc.D {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("D[%d] = %v not positive finite", i, v)
			}
		}
		for i, v := range sc.E {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("E[%d] = %v not positive finite", i, v)
			}
		}
		if !(sc.C > 0) || math.IsInf(sc.C, 0) {
			t.Fatalf("c = %v not positive finite", sc.C)
		}
		if err := scaled.Validate(); err != nil {
			t.Fatalf("scaled problem invalid: %v", err)
		}
		for i := range scaled.L {
			if scaled.L[i] > scaled.U[i] {
				t.Fatalf("scaling flipped bounds at row %d", i)
			}
		}
		// Unscale on the all-ones point must multiply exactly by D (and cE).
		x := linalg.Vector{1, 1}
		y := linalg.Vector{1, 1, 1}
		sc.Unscale(x, y)
		for i := range x {
			if x[i] != sc.D[i] {
				t.Fatalf("Unscale x[%d] = %v, want D = %v", i, x[i], sc.D[i])
			}
		}
		for i := range y {
			if y[i] != sc.C*sc.E[i] {
				t.Fatalf("Unscale y[%d] = %v, want cE = %v", i, y[i], sc.C*sc.E[i])
			}
		}
	})
}

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
