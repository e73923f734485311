package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// oracleProjectPlain is the box∩band bisection as it was before the live list:
// every pass sums every coordinate. Tests compare Project against it bit for
// bit; it must not be "improved".
func oracleProjectPlain(lo, hi linalg.Vector, sumLo, sumHi float64, y linalg.Vector) {
	clipSum := func(mu float64) float64 {
		var s float64
		for i, v := range y {
			z := v - mu
			if z < lo[i] {
				z = lo[i]
			} else if z > hi[i] {
				z = hi[i]
			}
			s += z
		}
		return s
	}
	s := clipSum(0)
	var target float64
	switch {
	case s > sumHi:
		target = sumHi
	case s < sumLo:
		target = sumLo
	default:
		linalg.Clamp(y, lo, hi)
		return
	}
	muLo, muHi := 0.0, 0.0
	if s > target {
		muHi = 1.0
		for clipSum(muHi) > target {
			muHi *= 2
			if muHi > 1e18 {
				break
			}
		}
	} else {
		muLo = -1.0
		for clipSum(muLo) < target {
			muLo *= 2
			if muLo < -1e18 {
				break
			}
		}
	}
	for iter := 0; iter < 100; iter++ {
		mid := 0.5 * (muLo + muHi)
		if clipSum(mid) > target {
			muLo = mid
		} else {
			muHi = mid
		}
		if muHi-muLo < 1e-14*(1+math.Abs(muLo)) {
			break
		}
	}
	mu := 0.5 * (muLo + muHi)
	for i, v := range y {
		z := v - mu
		if z < lo[i] {
			z = lo[i]
		} else if z > hi[i] {
			z = hi[i]
		}
		y[i] = z
	}
}

// oracleProject is BoxBand.Project — anchor floor included — on top of
// oracleProjectPlain.
func oracleProject(b *BoxBand, y linalg.Vector) {
	if b.anchorMin <= 0 {
		oracleProjectPlain(b.Lo, b.Hi, b.SumLo, b.SumHi, y)
		return
	}
	trial := y.Clone()
	oracleProjectPlain(b.Lo, b.Hi, b.SumLo, b.SumHi, trial)
	var sa float64
	for _, i := range b.anchorIdx {
		sa += trial[i]
	}
	if sa >= b.anchorMin-1e-12 {
		copy(y, trial)
		return
	}
	bufA, bufO := linalg.NewVector(len(b.anchorIdx)), linalg.NewVector(len(b.otherIdx))
	for k, i := range b.anchorIdx {
		bufA[k] = y[i]
	}
	for k, i := range b.otherIdx {
		bufO[k] = y[i]
	}
	oracleProjectPlain(b.subA.Lo, b.subA.Hi, b.subA.SumLo, b.subA.SumHi, bufA)
	oracleProjectPlain(b.subO.Lo, b.subO.Hi, b.subO.SumLo, b.subO.SumHi, bufO)
	for k, i := range b.anchorIdx {
		y[i] = bufA[k]
	}
	for k, i := range b.otherIdx {
		y[i] = bufO[k]
	}
}

// checkProjectBits projects y with the set and with the oracle and fails on
// any differing bit.
func checkProjectBits(t *testing.T, name string, b *BoxBand, y linalg.Vector) {
	t.Helper()
	want, got := y.Clone(), y.Clone()
	oracleProject(b, want)
	b.Project(got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d of %d: Project %v (%#x) != plain bisection %v (%#x) for y[i]=%v",
				name, i, len(y), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), y[i])
		}
	}
}

// sparseIterate looks like a FISTA iterate of a sparse portfolio: a few
// coordinates carry the allocation, the rest sit just below zero.
func sparseIterate(rng *rand.Rand, n int, scale float64) linalg.Vector {
	y := linalg.NewVector(n)
	for i := range y {
		y[i] = -rng.Float64() * 0.05
		if rng.Intn(8) == 0 {
			y[i] = rng.Float64() * scale
		}
	}
	return y
}

func TestBitIdenticalBoxBandProject(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	negZero := math.Copysign(0, -1)
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 288}

	compacted := 0
	for _, n := range sizes {
		capv := math.Max(1.0, 2.0/float64(n)) // Σ Hi ≥ 2: every band below is feasible
		for _, boxes := range []string{"zero-lo", "mixed-lo", "pinned", "neg-zero-lo"} {
			lo, hi := linalg.NewVector(n), linalg.NewVector(n)
			hi.Fill(capv)
			switch boxes {
			case "mixed-lo": // a non-zero Lo must never be dropped from the sum
				for i := 0; i < n; i += 3 {
					lo[i] = 0.01
				}
				for i := 1; i < n; i += 3 {
					lo[i] = -0.02
				}
			case "pinned": // Hi == Lo
				for i := 0; i < n; i += 2 {
					hi[i] = lo[i]
				}
				if n == 1 {
					hi[0] = capv
				}
			case "neg-zero-lo":
				for i := 0; i < n; i += 2 {
					lo[i] = negZero
				}
			}
			b := NewBoxBand(lo, hi, 1, 1.5)
			for trial := 0; trial < 12; trial++ {
				var y linalg.Vector
				switch trial % 4 {
				case 0: // sparse, sum above SumHi: the lowering case
					y = sparseIterate(rng, n, 3)
					y[rng.Intn(n)] = 4
				case 1: // sparse, sum below SumLo: the raising case
					y = sparseIterate(rng, n, 0.5/float64(n))
				case 2: // dense, lowering
					y = linalg.NewVector(n)
					for i := range y {
						y[i] = rng.Float64() * 3
					}
					y[0] += 2
				default: // dense signed
					y = linalg.NewVector(n)
					for i := range y {
						y[i] = rng.NormFloat64()
					}
				}
				before := b.Stats().Compactions
				// The same set projects every trial: the scratch is reused.
				checkProjectBits(t, fmt.Sprintf("n=%d %s trial %d", n, boxes, trial), b, y)
				compacted += b.Stats().Compactions - before
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no projection compacted its live list: the test did not reach the new code")
	}

	t.Run("exact-zero-differences", func(t *testing.T) {
		// Dyadic values make y[i] − mid exactly ±0 on early passes: a
		// coordinate at exactly zero is not below zero and must stay listed.
		lo, hi := linalg.NewVector(8), linalg.NewVector(8)
		hi.Fill(1)
		b := NewBoxBand(lo, hi, 1, 1.5)
		for _, y := range []linalg.Vector{
			{0.5, 0.5, 0.25, 0.25, 0.125, 1, 1, -0.5},
			{2, 0.5, 0.5, 0.5, 0.25, 0, negZero, -1},
			{0.75, 0.75, 0.375, 0.1875, 0, 0, 0, 3},
		} {
			checkProjectBits(t, "dyadic", b, y)
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		lo, hi := linalg.NewVector(9), linalg.NewVector(9)
		hi.Fill(1)
		b := NewBoxBand(lo, hi, 1, 1.5)
		base := linalg.Vector{3, -0.1, -0.2, 0.4, -0.3, -0.01, 0.9, -0.5, -0.05}
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			for _, at := range []int{0, 4, 8} {
				y := base.Clone()
				y[at] = bad
				checkProjectBits(t, fmt.Sprintf("y[%d]=%v", at, bad), b, y)
			}
		}
	})

	t.Run("anchored", func(t *testing.T) {
		for _, n := range []int{4, 9, 50, 288} {
			lo, hi := linalg.NewVector(n), linalg.NewVector(n)
			hi.Fill(1)
			var anchor []int
			for i := 1; i < n; i += 2 {
				anchor = append(anchor, i)
			}
			b := NewBoxBand(lo, hi, 1, 1.5).WithAnchor(anchor, 0.3)
			plainOnly, split := 0, 0
			for trial := 0; trial < 16; trial++ {
				y := sparseIterate(rng, n, 3)
				if trial%2 == 0 {
					// All the mass off the anchor: the floor binds and both
					// sub-blocks project.
					for _, i := range anchor {
						y[i] = -rng.Float64() * 0.05
					}
					y[0] = 2.5
				} else {
					y[anchor[0]] = 2
				}
				trialY := y.Clone()
				oracleProjectPlain(lo, hi, 1, 1.5, trialY)
				var sa float64
				for _, i := range anchor {
					sa += trialY[i]
				}
				if sa >= 0.3-1e-12 {
					plainOnly++
				} else {
					split++
				}
				checkProjectBits(t, fmt.Sprintf("anchored n=%d trial %d", n, trial), b, y)
			}
			if plainOnly == 0 || split == 0 {
				t.Fatalf("n=%d: anchored trials took plain %d / split %d times; both paths must run", n, plainOnly, split)
			}
		}
	})
}

// TestBoxBandProjectStats: compactions are counted where they happen — a
// sparse iterate compacts, a dense one never does — and the anchored
// sub-blocks are included.
func TestBoxBandProjectStats(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 64
	lo, hi := linalg.NewVector(n), linalg.NewVector(n)
	hi.Fill(1)
	b := NewBoxBand(lo, hi, 1, 1.5)
	if st := b.Stats(); st != (ProjectionStats{}) || st.LiveShare() != 1 {
		t.Fatalf("fresh set reports %+v (live share %v)", st, st.LiveShare())
	}
	dense := linalg.NewVector(n)
	dense.Fill(0.5)
	b.Project(dense)
	if st := b.Stats(); st.Compactions != 0 {
		t.Fatalf("dense iterate compacted: %+v", st)
	}
	y := sparseIterate(rng, n, 3)
	y[0] = 4
	b.Project(y)
	st := b.Stats()
	if st.Compactions == 0 || st.Kept >= st.Scanned || 2*st.Kept > st.Scanned || st.LiveShare() >= 1 {
		t.Fatalf("sparse iterate: %+v (live share %v); every compaction must at least halve its list", st, st.LiveShare())
	}

	anchored := NewBoxBand(lo, hi, 1, 1.5).WithAnchor([]int{1, 3, 5, 7}, 0.3)
	y = sparseIterate(rng, n, 3)
	for _, i := range []int{1, 3, 5, 7} {
		y[i] = -0.01
	}
	y[0] = 4
	anchored.Project(y)
	if got, own := anchored.Stats(), anchored.stats; got.Compactions <= own.Compactions {
		t.Fatalf("anchored Stats %+v does not include the sub-blocks (own %+v)", got, own)
	}
	ps := NewProductSet([]*BoxBand{b, anchored})
	want := b.Stats()
	want.Add(anchored.Stats())
	if got := ps.Stats(); got != want {
		t.Fatalf("ProductSet.Stats = %+v, want %+v", got, want)
	}
}

// TestBoxBandProjectAllocFree: the index scratch comes with the set.
func TestBoxBandProjectAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 96
	lo, hi := linalg.NewVector(n), linalg.NewVector(n)
	hi.Fill(1)
	b := NewBoxBand(lo, hi, 1, 1.5)
	src := sparseIterate(rng, n, 3)
	src[0] = 4
	y := linalg.NewVector(n)
	allocs := testing.AllocsPerRun(50, func() {
		copy(y, src)
		b.Project(y)
	})
	if allocs != 0 || b.Stats().Compactions == 0 {
		t.Fatalf("Project allocates %v objects per call over %d compactions, want 0 and > 0", allocs, b.Stats().Compactions)
	}
}
