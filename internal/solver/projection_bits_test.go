package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// oracleProjectPlain is the plain box∩band bisection: every bracket and
// bisection query is one evaluated pass over every coordinate. Tests compare
// Project against it bit for bit; it must not be "improved".
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

// checkProjectSequence projects the ys in order on the one set b, so that each
// projection starts from whatever guess the one before left behind.
func checkProjectSequence(t *testing.T, name string, b *BoxBand, ys ...linalg.Vector) {
	t.Helper()
	for k, y := range ys {
		checkProjectBits(t, fmt.Sprintf("%s step %d", name, k), b, y)
	}
}

func TestBitIdenticalBoxBandProject(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	negZero := math.Copysign(0, -1)
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 288}

	for _, n := range sizes {
		capv := math.Max(1.0, 2.0/float64(n)) // Σ Hi ≥ 2: every band below is feasible
		for _, boxes := range []string{"zero-lo", "mixed-lo", "pinned", "neg-zero-lo"} {
			lo, hi := linalg.NewVector(n), linalg.NewVector(n)
			hi.Fill(capv)
			switch boxes {
			case "mixed-lo":
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
				// The same set projects every trial, raising after lowering:
				// each starts from an unrelated guess, often of the wrong sign.
				checkProjectBits(t, fmt.Sprintf("n=%d %s trial %d", n, boxes, trial), b, y)
			}
		}
	}

	t.Run("drifting", func(t *testing.T) {
		// Consecutive FISTA iterates: the previous multiplier is a good guess.
		// This is where the certificate must pay: few real passes, grid jump.
		var total ProjectionStats
		for _, n := range sizes {
			lo, hi := linalg.NewVector(n), linalg.NewVector(n)
			hi.Fill(math.Max(1.0, 2.0/float64(n)))
			b := NewBoxBand(lo, hi, 1, 1.5)
			y := sparseIterate(rng, n, 3)
			y[rng.Intn(n)] = 4
			for step := 0; step < 64; step++ {
				for i := range y {
					y[i] += 1e-3 * rng.NormFloat64()
				}
				checkProjectBits(t, fmt.Sprintf("n=%d step %d", n, step), b, y)
			}
			total.Add(b.Stats())
		}
		if total.Projections == 0 || total.PassesPerProjection() > 12 || total.Jumps == 0 {
			t.Fatalf("drifting sequences: %+v (%.1f passes per projection); want at most 12 and the grid jump taken",
				total, total.PassesPerProjection())
		}
	})

	t.Run("large-roots", func(t *testing.T) {
		// |μ| up to 1e6 in both directions: brackets wider than 1, and guesses
		// that are wrong by orders of magnitude from one step to the next.
		for _, n := range []int{1, 3, 6, 50} {
			lo, hi := linalg.NewVector(n), linalg.NewVector(n)
			hi.Fill(2)
			b := NewBoxBand(lo, hi, 1, 1.5)
			for _, root := range []float64{1.5, -1.5, 3, -40, 1000.25, -65536, 1e6, -1e6, 7, 0.01} {
				y := linalg.NewVector(n)
				for i := range y {
					y[i] = root + 1.2/float64(n) + 0.1*rng.NormFloat64()
				}
				drift := y.Clone()
				for i := range drift {
					drift[i] += 1e-3 * rng.NormFloat64()
				}
				checkProjectSequence(t, fmt.Sprintf("n=%d root %v", n, root), b, y, drift)
			}
		}
	})

	t.Run("grid-edges", func(t *testing.T) {
		// One free coordinate puts the root at y − 1.5 exactly: on a multiple
		// of W·2⁻⁴⁰ or W·2⁻⁴⁵ — the grids the jump lands on — and one and two
		// ulps either side, for W = 1, 4 and 2²⁰, cold and again from the
		// guess the neighbouring root left.
		lo, hi := linalg.Vector{0, 0, 0}, linalg.Vector{8, 1, 1}
		for _, w := range []float64{1, 4, 1 << 20} {
			for _, h := range []float64{w * 0x1p-40, w * 0x1p-45} {
				for _, cell := range []float64{1, 3, 1 << 20, 1<<39 + 12345, 1<<40 - 1, 1<<44 + 777, 1<<45 - 1} {
					root := w/2 + h*math.Floor(cell/2) // a grid point in (w/2, w)
					for _, ulps := range []int{0, 1, 2, -1, -2} {
						r := root
						for k := 0; k < ulps; k++ {
							r = math.Nextafter(r, math.Inf(1))
						}
						for k := 0; k > ulps; k-- {
							r = math.Nextafter(r, math.Inf(-1))
						}
						b := NewBoxBand(lo, hi, 1, 1.5)
						y := linalg.Vector{r + 1.5, -3, -2 * w}
						checkProjectSequence(t, fmt.Sprintf("W=%v cell %v %+d ulp", w, cell, ulps), b, y, y,
							linalg.Vector{root + 1.5, -3, -2 * w}, linalg.Vector{-(r + 1.5), -w, -3 * w})
					}
				}
			}
		}
	})

	t.Run("all-clipped", func(t *testing.T) {
		// No coordinate strictly inside its bounds at μ = 0, nor at the guess
		// the previous projection left: Newton has no slope to start from.
		lo, hi := linalg.NewVector(4), linalg.NewVector(4)
		hi.Fill(1)
		b := NewBoxBand(lo, hi, 1, 1.5)
		checkProjectSequence(t, "all-clipped", b,
			linalg.Vector{5, 7, -3, -4},    // free == 0 at 0; root 4.5
			linalg.Vector{50, 70, -3, -4},  // free == 0 at 0 and at 4.5
			linalg.Vector{-5, -7, -9, -20}, // raising, everything at Lo
			linalg.Vector{-50, -70, -9, -200},
			linalg.Vector{9, 9, 9, 9},
			linalg.Vector{3, 3, -1, -1},
		)
		// A band that equals a sum of bounds: g is flat AT the target.
		flat := NewBoxBand(lo, hi, 2, 2)
		checkProjectSequence(t, "flat-at-target", flat,
			linalg.Vector{5, 7, 9, -4}, linalg.Vector{5, 7, 9.5, -4}, linalg.Vector{5, 7, -9, -4}, linalg.Vector{0.5, 7, -9, -4})
	})

	t.Run("dyadic-plateaus", func(t *testing.T) {
		// Bounds, bands and iterates on a coarse dyadic grid: passes land
		// exactly on kinks, g is flat at the target over whole intervals, sums
		// hit the target exactly — the flat-piece and equal-range paths — on
		// sets projected six times in a row with guesses good, stale and far.
		for _, n := range []int{1, 2, 3, 6, 9, 50} {
			for rep := 0; rep < 300; rep++ {
				q := math.Pow(2, float64(-rng.Intn(6)))
				lo, hi := linalg.NewVector(n), linalg.NewVector(n)
				var sl, sh float64
				for i := range hi {
					hi[i] = q * float64(1+rng.Intn(4))
					if rng.Intn(4) == 0 {
						lo[i] = q * float64(rng.Intn(3)-1)
					}
					if rng.Intn(9) == 0 {
						hi[i] = lo[i]
					}
					sl, sh = sl+lo[i], sh+hi[i]
				}
				sumLo := sl + q*float64(rng.Intn(int((sh-sl)/q)+1))
				b := NewBoxBand(lo, hi, sumLo, math.Min(sh, sumLo+q*float64(rng.Intn(3))))
				if n > 2 && rng.Intn(3) == 0 {
					b.WithAnchor([]int{0, n - 1}, q)
				}
				y := linalg.NewVector(n)
				for step := 0; step < 6; step++ {
					mode := rng.Intn(4)
					off := q * float64(rng.Intn(4000)-2000)
					if mode == 0 {
						off *= 1000
					}
					for i := range y {
						switch mode {
						case 0, 1: // unrelated
							y[i] = off + q*float64(rng.Intn(64)-32)
						case 2: // moved by whole grid steps
							y[i] += q * float64(rng.Intn(3)-1)
						default: // drifted off the grid
							y[i] += 1e-9 * rng.NormFloat64()
						}
					}
					checkProjectBits(t, fmt.Sprintf("n=%d rep %d step %d", n, rep, step), b, y)
				}
			}
		}
	})

	t.Run("exact-zero-differences", func(t *testing.T) {
		// Dyadic values make y[i] − mid exactly ±0 on early passes.
		lo, hi := linalg.NewVector(8), linalg.NewVector(8)
		hi.Fill(1)
		b := NewBoxBand(lo, hi, 1, 1.5)
		checkProjectSequence(t, "dyadic", b,
			linalg.Vector{0.5, 0.5, 0.25, 0.25, 0.125, 1, 1, -0.5},
			linalg.Vector{2, 0.5, 0.5, 0.5, 0.25, 0, negZero, -1},
			linalg.Vector{0.75, 0.75, 0.375, 0.1875, 0, 0, 0, 3},
		)
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
				checkProjectSequence(t, fmt.Sprintf("y[%d]=%v", at, bad), b, y, base)
			}
		}
		// Unbounded box sides: ±Inf terms of both signs sum to NaN at every μ
		// (box-only exit), of one sign only past some μ.
		inf := math.Inf(1)
		open := NewBoxBand(linalg.Vector{-inf, 0, -inf}, linalg.Vector{inf, inf, 1}, 1, 1.5)
		checkProjectSequence(t, "unbounded box", open,
			linalg.Vector{inf, 2, -inf}, linalg.Vector{3, 2, 1}, linalg.Vector{-3, inf, -4},
			linalg.Vector{3, 2, -inf}, linalg.Vector{-inf, 0.2, 0.1}, linalg.Vector{1e308, 1e308, -1e308})
	})

	t.Run("disordered-box", func(t *testing.T) {
		// Lo > Hi on one coordinate (or a NaN bound) breaks the monotonicity
		// the certificate rests on: every query must be evaluated.
		for name, bound := range map[string][2]float64{"lo>hi": {0.6, 0.2}, "nan-hi": {0, math.NaN()}, "nan-lo": {math.NaN(), 1}} {
			lo, hi := linalg.NewVector(6), linalg.NewVector(6)
			hi.Fill(1)
			lo[2], hi[2] = bound[0], bound[1]
			b := NewBoxBand(lo, hi, 1, 1.5)
			if b.ordered {
				t.Fatalf("%s: box recorded as ordered", name)
			}
			for trial := 0; trial < 8; trial++ {
				y := linalg.NewVector(6)
				for i := range y {
					y[i] = 2 * rng.NormFloat64()
				}
				checkProjectBits(t, name, b, y)
			}
			if st := b.Stats(); st.Projections == 0 || st.PassesPerProjection() < 40 || st.Jumps != 0 {
				t.Fatalf("%s: %+v — a disordered box must evaluate every query", name, st)
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
				drift := y.Clone()
				for i := range drift {
					drift[i] += 1e-4 * rng.NormFloat64()
				}
				checkProjectSequence(t, fmt.Sprintf("anchored n=%d trial %d", n, trial), b, y, drift)
			}
			if plainOnly == 0 || split == 0 {
				t.Fatalf("n=%d: anchored trials took plain %d / split %d times; both paths must run", n, plainOnly, split)
			}
			if b.subA.stats.Projections == 0 || b.subO.stats.Projections == 0 {
				t.Fatalf("n=%d: sub-block stats %+v / %+v; both must have bisected", n, b.subA.stats, b.subO.stats)
			}
		}
	})
}

// TestBitIdenticalSweepShapedProjections replays what a what-if sweep's
// FISTA solves feed the projection: 6-market blocks with the box [0, 0.4] and
// the band [1, 1.5] of the runner's portfolio config, iterates one gradient
// step off a point on the band — cheap markets pulled up, the rest pushed
// down, noise that shrinks as a solve converges — and one set per block whose
// multiplier carries from call to call, within a solve and across the solves
// of a leg. The anchored set's three on-demand markets are the expensive ones,
// so its floor binds and both sub-blocks project.
func TestBitIdenticalSweepShapedProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	lo, hi := linalg.NewVector(6), linalg.NewVector(6)
	hi.Fill(0.4)
	for _, c := range []struct {
		name   string
		set    *BoxBand
		cost   linalg.Vector // the gradient's direction
		anchor bool
	}{
		{"plain", NewBoxBand(lo, hi, 1, 1.5), linalg.Vector{0.5, -0.2, 0.3, 0.8, -0.4, 0.1}, false},
		{"anchored", NewBoxBand(lo, hi, 1, 1.5).WithAnchor([]int{3, 4, 5}, 0.3), linalg.Vector{-0.3, -0.2, -0.25, 0.9, 0.8, 0.7}, true},
	} {
		b := c.set
		for solve := 0; solve < 150; solve++ {
			// Start on the band: the floor, the ceiling or between.
			x := linalg.NewVector(6)
			for i := range x {
				x[i] = 0.4 * rng.Float64()
			}
			oracleProject(b, x)
			step := 0.02 + 0.1*rng.Float64()
			for iter := 0; iter < 25; iter++ {
				y := x.Clone()
				noise := 0.05 * math.Pow(0.7, float64(iter))
				for i := range y {
					y[i] -= step*c.cost[i] + noise*rng.NormFloat64()
				}
				if solve%5 == 0 { // lift the total over the ceiling: the lowering case
					y[rng.Intn(6)] += 1
				}
				checkProjectBits(t, fmt.Sprintf("%s solve %d iterate %d", c.name, solve, iter), b, y)
				oracleProject(b, y)
				x = y
			}
		}
		st := b.Stats()
		if st.Projections == 0 || st.Jumps == 0 || st.PassesPerProjection() > 8 {
			t.Fatalf("%s: %+v (%.1f passes per projection); want bisections, the grid jump and at most 8 passes each",
				c.name, st, st.PassesPerProjection())
		}
		if c.anchor && (b.subA.stats.Projections == 0 || b.subO.stats.Projections == 0) {
			t.Fatalf("%s: the floor never bound (sub-blocks %+v / %+v)", c.name, b.subA.stats, b.subO.stats)
		}
	}
}

// TestClipSumMonotone holds the lemma the certificate rests on: on an ordered
// box the computed g(μ) never rises with μ — for far-apart and for adjacent
// floats, mixed-sign y and non-zero Lo.
func TestClipSumMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 288} {
		lo, hi := linalg.NewVector(n), linalg.NewVector(n)
		for i := range lo {
			lo[i] = 0.3 * rng.NormFloat64()
			hi[i] = lo[i] + rng.Float64()*float64(rng.Intn(3)) // some Hi == Lo
		}
		b := NewBoxBand(lo, hi, 1, 1.5)
		if !b.ordered {
			t.Fatal("test box is not ordered")
		}
		for trial := 0; trial < 200; trial++ {
			scale := math.Pow(10, float64(rng.Intn(5)-2))
			y := linalg.NewVector(n)
			for i := range y {
				y[i] = scale * rng.NormFloat64()
			}
			mu := scale * rng.NormFloat64()
			prev, _ := clipSum(y, lo, hi, mu)
			for step := 0; step < 40; step++ {
				next := math.Nextafter(mu, math.Inf(1))
				if step%4 == 3 {
					next = mu + scale*rng.Float64()*1e-3
				}
				s, _ := clipSum(y, lo, hi, next)
				if s > prev {
					t.Fatalf("n=%d: g(%v) = %v > g(%v) = %v", n, next, s, mu, prev)
				}
				mu, prev = next, s
			}
		}
	}
}

// TestBoxBandProjectStats: projections, real passes and grid jumps are counted
// where they happen — only for projections that bisect — and the anchored
// sub-blocks are included.
func TestBoxBandProjectStats(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 64
	lo, hi := linalg.NewVector(n), linalg.NewVector(n)
	hi.Fill(1)
	b := NewBoxBand(lo, hi, 1, 1.5)
	if st := b.Stats(); st != (ProjectionStats{}) || st.PassesPerProjection() != 0 {
		t.Fatalf("fresh set reports %+v (%v passes per projection)", st, st.PassesPerProjection())
	}
	inBand := linalg.NewVector(n)
	inBand.Fill(0.02)
	b.Project(inBand)
	if st := b.Stats(); st != (ProjectionStats{}) {
		t.Fatalf("a box-only projection was counted: %+v", st)
	}
	y := sparseIterate(rng, n, 3)
	y[0] = 4
	b.Project(y)
	st := b.Stats()
	if st.Projections != 1 || st.Passes < 2 || st.Passes >= 15 || st.Jumps != 1 {
		t.Fatalf("sparse iterate: %+v; want one bisected projection, under 15 real passes, the grid jump taken", st)
	}

	anchored := NewBoxBand(lo, hi, 1, 1.5).WithAnchor([]int{1, 3, 5, 7}, 0.3)
	y = sparseIterate(rng, n, 3)
	for _, i := range []int{1, 3, 5, 7} {
		y[i] = -0.01
	}
	y[0] = 4
	anchored.Project(y)
	if got, own := anchored.Stats(), anchored.stats; got.Projections != own.Projections+2 || got.Passes <= own.Passes {
		t.Fatalf("anchored Stats %+v does not include the sub-blocks (own %+v)", got, own)
	}
	ps := NewProductSet([]*BoxBand{b, anchored})
	want := b.Stats()
	want.Add(anchored.Stats())
	if got := ps.Stats(); got != want {
		t.Fatalf("ProductSet.Stats = %+v, want %+v", got, want)
	}
}

// TestBoxBandProjectAllocFree: the certificate lives on the stack.
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
	if st := b.Stats(); allocs != 0 || st.Projections == 0 || st.PassesPerProjection() >= 15 {
		t.Fatalf("Project allocates %v objects per call at %.1f real passes per bisected projection (%+v), want 0 and < 15",
			allocs, st.PassesPerProjection(), st)
	}
	// The horizon-stacked set runs every FISTA iteration too.
	ps := NewProductSet([]*BoxBand{b, NewBoxBand(lo, hi, 1, 1.5), NewBoxBand(lo, hi, 1, 1.5)})
	src3, y3 := append(append(src.Clone(), src...), src...), linalg.NewVector(3*n)
	if a := testing.AllocsPerRun(50, func() {
		copy(y3, src3)
		ps.Project(y3)
	}); a != 0 {
		t.Fatalf("ProductSet.Project allocates %v objects per call", a)
	}
}
