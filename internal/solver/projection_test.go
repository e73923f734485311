package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func vecsEqual(a, b linalg.Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func (b *BoxBand) contains(x linalg.Vector, tol float64) bool {
	var sum float64
	for i := range x {
		if x[i] < b.Lo[i]-tol || x[i] > b.Hi[i]+tol {
			return false
		}
		sum += x[i]
	}
	return sum >= b.SumLo-tol && sum <= b.SumHi+tol
}

// randomFeasiblePoint samples a point in the box and rescales toward the band
// until feasible. Assumes the set is feasible.
func (b *BoxBand) randomFeasiblePoint(rng *rand.Rand) linalg.Vector {
	x := linalg.NewVector(len(b.Lo))
	for i := range x {
		x[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	b.Project(x) // projection of a box point lands in the set
	return x
}

func TestProjectBox(t *testing.T) {
	x := linalg.Vector{-2, 0.5, 3}
	ProjectBox(x, linalg.Vector{0, 0, 0}, linalg.Vector{1, 1, 1})
	if !vecsEqual(x, linalg.Vector{0, 0.5, 1}, 0) {
		t.Fatalf("ProjectBox got %v", x)
	}
}

func TestBoxBandFeasible(t *testing.T) {
	lo := linalg.Vector{0, 0}
	hi := linalg.Vector{1, 1}
	if !feasible(NewBoxBand(lo, hi, 0.5, 1.5)) {
		t.Fatal("should be feasible")
	}
	if feasible(NewBoxBand(lo, hi, 3, 4)) {
		t.Fatal("band above box sum range should be infeasible")
	}
	if feasible(NewBoxBand(lo, hi, -2, -1)) {
		t.Fatal("band below box sum range should be infeasible")
	}
	if feasible(NewBoxBand(linalg.Vector{1}, linalg.Vector{0}, 0, 1)) {
		t.Fatal("lo > hi should be infeasible")
	}
	if feasible(NewBoxBand(lo, hi, 1.5, 0.5)) {
		t.Fatal("SumLo > SumHi should be infeasible")
	}
}

func TestBoxBandProjectInterior(t *testing.T) {
	b := NewBoxBand(linalg.Vector{0, 0}, linalg.Vector{1, 1}, 0, 2)
	x := linalg.Vector{0.3, 0.4}
	want := x.Clone()
	b.Project(x)
	if !vecsEqual(x, want, 1e-12) {
		t.Fatalf("interior point moved: %v", x)
	}
}

func TestBoxBandProjectSumHigh(t *testing.T) {
	// Project (1,1) onto {x ∈ [0,1]²: Σx ≤ 1}: answer (0.5, 0.5).
	b := NewBoxBand(linalg.Vector{0, 0}, linalg.Vector{1, 1}, 0, 1)
	x := linalg.Vector{1, 1}
	b.Project(x)
	if !vecsEqual(x, linalg.Vector{0.5, 0.5}, 1e-9) {
		t.Fatalf("got %v, want (0.5,0.5)", x)
	}
}

func TestBoxBandProjectSumLow(t *testing.T) {
	// Project (0,0) onto {x ∈ [0,1]²: Σx ≥ 1}: answer (0.5, 0.5).
	b := NewBoxBand(linalg.Vector{0, 0}, linalg.Vector{1, 1}, 1, 2)
	x := linalg.Vector{0, 0}
	b.Project(x)
	if !vecsEqual(x, linalg.Vector{0.5, 0.5}, 1e-9) {
		t.Fatalf("got %v, want (0.5,0.5)", x)
	}
}

func TestBoxBandProjectWithCaps(t *testing.T) {
	// With per-element cap 0.4 and Σ ≥ 1 over 3 vars starting at 0:
	// symmetric answer is (1/3,1/3,1/3); cap not binding.
	b := NewBoxBand(linalg.Vector{0, 0, 0}, linalg.Vector{0.4, 0.4, 0.4}, 1, 3)
	x := linalg.Vector{0, 0, 0}
	b.Project(x)
	if math.Abs(x.Sum()-1) > 1e-9 {
		t.Fatalf("sum = %v, want 1", x.Sum())
	}
	// Asymmetric start: y = (0.9, 0, 0), Σ ≥ 1, caps 0.4.
	// clip(y−μ) with μ<0: x0 capped at 0.4, x1 = x2 = −μ; need 0.4−2μ… solve:
	// 0.4 + 2(−μ) = 1 → μ = −0.3 → x = (0.4, 0.3, 0.3).
	x = linalg.Vector{0.9, 0, 0}
	b.Project(x)
	if !vecsEqual(x, linalg.Vector{0.4, 0.3, 0.3}, 1e-8) {
		t.Fatalf("got %v, want (0.4,0.3,0.3)", x)
	}
}

// Property: projection output is always in the set, and projecting twice is
// the same as projecting once (idempotence).
func TestBoxBandProjectionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(8)
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		for i := 0; i < n; i++ {
			lo[i] = rng.NormFloat64()
			hi[i] = lo[i] + rng.Float64()*2
		}
		minSum, maxSum := lo.Sum(), hi.Sum()
		// Pick a feasible band.
		a := minSum + rng.Float64()*(maxSum-minSum)
		bnd := a + rng.Float64()*(maxSum-a)
		set := NewBoxBand(lo, hi, a, bnd)
		if !feasible(set) {
			t.Fatalf("constructed set should be feasible")
		}
		y := linalg.NewVector(n)
		for i := range y {
			y[i] = rng.NormFloat64() * 5
		}
		x := y.Clone()
		set.Project(x)
		if !set.contains(x, 1e-7) {
			t.Fatalf("iter %d: projection not in set: %v (lo=%v hi=%v band=[%v,%v] sum=%v)",
				iter, x, lo, hi, a, bnd, x.Sum())
		}
		x2 := x.Clone()
		set.Project(x2)
		if !vecsEqual(x, x2, 1e-7) {
			t.Fatalf("iter %d: projection not idempotent", iter)
		}
	}
}

// Property: variational inequality (y − Πy)ᵀ(w − Πy) ≤ 0 for all feasible w,
// which characterizes the Euclidean projection onto a convex set.
func TestBoxBandProjectionOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(6)
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		for i := 0; i < n; i++ {
			hi[i] = 0.2 + rng.Float64()
		}
		set := NewBoxBand(lo, hi, 0.5*hi.Sum()*rng.Float64(), hi.Sum())
		if !feasible(set) {
			continue
		}
		y := linalg.NewVector(n)
		for i := range y {
			y[i] = rng.NormFloat64() * 3
		}
		px := y.Clone()
		set.Project(px)
		for k := 0; k < 10; k++ {
			w := set.randomFeasiblePoint(rng)
			var dot float64
			for i := range y {
				dot += (y[i] - px[i]) * (w[i] - px[i])
			}
			if dot > 1e-6 {
				t.Fatalf("iter %d: VI violated: dot=%v", iter, dot)
			}
		}
	}
}

// Property: projections are nonexpansive: ‖Πa − Πb‖ ≤ ‖a − b‖.
func TestBoxBandNonexpansive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lo := linalg.Vector{0, 0, 0, 0}
	hi := linalg.Vector{1, 1, 1, 1}
	set := NewBoxBand(lo, hi, 1, 2)
	for iter := 0; iter < 200; iter++ {
		a := linalg.NewVector(4)
		b := linalg.NewVector(4)
		for i := range a {
			a[i] = rng.NormFloat64() * 4
			b[i] = rng.NormFloat64() * 4
		}
		d0 := a.Sub(b).Norm2()
		pa, pb := a.Clone(), b.Clone()
		set.Project(pa)
		set.Project(pb)
		if pa.Sub(pb).Norm2() > d0+1e-7 {
			t.Fatalf("nonexpansiveness violated")
		}
	}
}

func TestProductSet(t *testing.T) {
	b1 := NewBoxBand(linalg.Vector{0, 0}, linalg.Vector{1, 1}, 0, 1)
	b2 := NewBoxBand(linalg.Vector{0}, linalg.Vector{2}, 1, 2)
	ps := NewProductSet([]*BoxBand{b1, b2})
	if ps.Dim() != 3 {
		t.Fatalf("Dim = %d", ps.Dim())
	}
	x := linalg.Vector{5, 5, 0}
	ps.Project(x)
	if math.Abs(x[0]+x[1]-1) > 1e-8 || math.Abs(x[2]-1) > 1e-8 {
		t.Fatalf("product projection got %v", x)
	}
}

func TestProjectDimensionPanics(t *testing.T) {
	b := NewBoxBand(linalg.Vector{0}, linalg.Vector{1}, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Project(linalg.Vector{1, 2})
}

// feasible reports whether the set is non-empty.
func feasible(b *BoxBand) bool {
	var minSum, maxSum float64
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return false
		}
		minSum += b.Lo[i]
		maxSum += b.Hi[i]
	}
	if b.SumLo > b.SumHi || minSum > b.SumHi || maxSum < b.SumLo {
		return false
	}
	if b.anchorMin > 0 {
		// The anchor block must be able to reach its floor, and pinning it at
		// the floor must leave the residual band reachable for the rest.
		var hiA, loO float64
		for _, i := range b.anchorIdx {
			hiA += b.Hi[i]
		}
		for _, i := range b.otherIdx {
			loO += b.Lo[i]
		}
		if hiA < b.anchorMin || b.anchorMin+loO > b.SumHi {
			return false
		}
	}
	return true
}
