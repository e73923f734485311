package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// cdfAt is betaCDF's value alone.
func cdfAt(x, a, b, lb float64) float64 {
	c, _ := betaCDF(x, a, b, lb)
	return c
}

// fullBetaCDF is I_x(a, b) for any x and shape: betaCDF inside (0, 1), 0 and
// 1 outside, NaN for a NaN x or a non-positive shape.
func fullBetaCDF(x, a, b float64) float64 {
	if math.IsNaN(x) || a <= 0 || b <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lb, _ := logBeta(a, b)
	return cdfAt(x, a, b, lb)
}

func TestBetaCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, a, b, want float64
	}{
		// Beta(1,1) is uniform.
		{0.25, 1, 1, 0.25},
		{0.75, 1, 1, 0.75},
		// Beta(2,2): CDF = 3x² − 2x³.
		{0.5, 2, 2, 0.5},
		{0.25, 2, 2, 3*0.0625 - 2*0.015625},
		// Beta(1,5): CDF = 1 − (1−x)⁵.
		{0.2, 1, 5, 1 - math.Pow(0.8, 5)},
		// Symmetry: I_{0.3}(5,2) = 1 − I_{0.7}(2,5), and for integer shapes
		// I_{0.7}(2,5) = 1 − 0.3⁶ − 6·0.7·0.3⁵ = 0.989065.
		{0.3, 5, 2, 0.010935},
	}
	for _, c := range cases {
		got := fullBetaCDF(c.x, c.a, c.b)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("fullBetaCDF(%g, %g, %g) = %.6f, want %.6f", c.x, c.a, c.b, got, c.want)
		}
	}
	if got := fullBetaCDF(-0.1, 2, 2); got != 0 {
		t.Errorf("CDF below support = %v", got)
	}
	if got := fullBetaCDF(1.1, 2, 2); got != 1 {
		t.Errorf("CDF above support = %v", got)
	}
}

func TestBetaQuantileInvertsCDF(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 8, 40} {
		for _, b := range []float64{0.5, 1, 3, 20, 400} {
			for _, p := range []float64{0.05, 0.25, 0.5, 0.85, 0.99} {
				x := BetaQuantile(p, a, b, math.NaN())
				if x < 0 || x > 1 {
					t.Fatalf("quantile(%g; %g,%g) = %g outside [0,1]", p, a, b, x)
				}
				back := fullBetaCDF(x, a, b)
				if math.Abs(back-p) > 1e-9 {
					t.Errorf("CDF(Quantile(%g; %g,%g)) = %g", p, a, b, back)
				}
			}
		}
	}
}

func TestBetaQuantileMonotone(t *testing.T) {
	prev := -1.0
	for p := 0.01; p < 1; p += 0.01 {
		x := BetaQuantile(p, 3, 7, math.NaN())
		if x < prev {
			t.Fatalf("quantile not monotone at p=%g: %g < %g", p, x, prev)
		}
		prev = x
	}
}

// lgammaBetaCDF is fullBetaCDF with the log-Beta term not hoisted: three
// Lgamma calls inlined into one exponent.
func lgammaBetaCDF(x, a, b float64) float64 {
	if math.IsNaN(x) || a <= 0 || b <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lg1, _ := math.Lgamma(a + b)
	lg2, _ := math.Lgamma(a)
	lg3, _ := math.Lgamma(b)
	front := math.Exp(lg1 - lg2 - lg3 + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// bisectBetaCDF is the oracle BetaQuantile must match bit for bit: the same
// bisection evaluating lgammaBetaCDF, log-Beta term and all, at every step. A
// NaN p or a non-positive or non-finite shape has no quantile.
func bisectBetaCDF(p, a, b float64) float64 {
	if math.IsNaN(p) || !(a > 0) || !(b > 0) || math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if lgammaBetaCDF(mid, a, b) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-15 {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// logSpace returns n points from lo to hi, evenly spaced in log.
func logSpace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

// TestBitIdenticalBetaQuantile holds BetaQuantile to bisectBetaCDF, and
// betaCDF to lgammaBetaCDF, over the shapes the risk estimator produces —
// a ≥ 8·1e-5 (prior strength 8 times the 1e-5 probability clamp) up to 50, b
// from its 1e-3 clamp up to 1e6 — at the credible levels in use, and over
// signed zeros, NaN and out-of-range arguments. A quantile only moves when a
// CDF value crosses p, so the CDF itself is compared at bisection-like points
// across (0, 1): that is where a reordered exponent shows.
func TestBitIdenticalBetaQuantile(t *testing.T) {
	check := func(p, a, b float64) {
		t.Helper()
		got, want := BetaQuantile(p, a, b, math.NaN()), bisectBetaCDF(p, a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BetaQuantile(%g, %g, %g) = %x, want %x", p, a, b, math.Float64bits(got), math.Float64bits(want))
		}
	}
	checkCDF := func(x, a, b float64) {
		t.Helper()
		got, want := fullBetaCDF(x, a, b), lgammaBetaCDF(x, a, b)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("fullBetaCDF(%g, %g, %g) = %x, want %x", x, a, b, math.Float64bits(got), math.Float64bits(want))
		}
	}
	ps := []float64{0.5, 0.8, 0.9, 0.99}
	for _, a := range logSpace(8e-5, 50, 13) {
		for _, b := range logSpace(1e-3, 1e6, 13) {
			for _, p := range ps {
				check(p, a, b)
			}
			for k := 1; k < 64; k++ {
				checkCDF(float64(k)/64, a, b)
				checkCDF(math.Ldexp(1, -k), a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		a := 8e-5 * math.Pow(50/8e-5, rng.Float64())
		b := 1e-3 * math.Pow(1e9, rng.Float64())
		check(ps[i%len(ps)], a, b)
	}
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	for _, p := range []float64{-inf, -0.5, negZero, 0, nan, 0.9, 1, 1.5, inf} {
		for _, a := range []float64{-inf, -1, negZero, 0, nan, 2, inf} {
			for _, b := range []float64{-inf, -1, negZero, 0, nan, 3, inf} {
				check(p, a, b)
				checkCDF(p, a, b)
			}
		}
	}
}

// nearGuesses returns the starts TestBitIdenticalBetaQuantileNear tries for a
// quantile q: q itself, q·(1 ± 10⁻ᵏ) for k = 1…15, and the ends, outside and
// middle of [0, 1], NaN and +Inf.
func nearGuesses(q float64) []float64 {
	gs := []float64{q, 0, 1, -1, 0.5, math.NaN(), math.Inf(1)}
	for k := 1; k <= 15; k++ {
		f := math.Pow(10, -float64(k))
		gs = append(gs, q*(1+f), q*(1-f))
	}
	return gs
}

// TestBitIdenticalBetaQuantileNear holds BetaQuantile started from a guess to
// bisectBetaCDF over TestBitIdenticalBetaQuantile's shapes and credible
// levels. The computed CDF drops where betaCDF switches formula, at x* =
// (a+1)/(a+b+2) (by 8.7e-10 at a = 0.5, b = 1e6), so p is also set to the CDF
// at the dyadic points either side of x*: the cold path then crosses the drop,
// and a bracket around the CDF's other crossing of p must not pass for one on
// the cold path. x* and those points are guesses too.
func TestBitIdenticalBetaQuantileNear(t *testing.T) {
	for _, a := range logSpace(8e-5, 50, 13) {
		for _, b := range logSpace(1e-3, 1e6, 13) {
			lb, _ := logBeta(a, b)
			xs := (a + 1) / (a + b + 2)
			ps := []float64{0.5, 0.8, 0.9, 0.99}
			around := []float64{xs}
			for _, level := range []int{30, 40, 50} {
				k := math.Floor(math.Ldexp(xs, level))
				for _, x := range []float64{math.Ldexp(k, -level), math.Ldexp(k+1, -level)} {
					if x > 0 && x < 1 {
						ps = append(ps, cdfAt(x, a, b, lb))
						around = append(around, x)
					}
				}
			}
			for _, p := range ps {
				want := bisectBetaCDF(p, a, b)
				for _, g := range append(nearGuesses(want), around...) {
					if got := BetaQuantile(p, a, b, g); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("BetaQuantile(%v, %v, %v, guess %v) = %v, want %v", p, a, b, g, got, want)
					}
				}
			}
		}
	}
}

// FuzzBetaQuantileNear: whatever the guess, BetaQuantile returns the bits of
// the bisection from [0, 1].
func FuzzBetaQuantileNear(f *testing.F) {
	f.Add(0.9, 0.16, 7.84, 0.06)
	f.Add(0.9, 2.16, 35.84, 0.1068834)
	f.Add(0.85, 8e-5, 2e3, 4.4e-16)
	f.Add(0.5, 0.5, 1e6, 1.5e-6)
	f.Add(0.99, 50.0, 1e-3, 0.999)
	f.Fuzz(func(t *testing.T, p, a, b, guess float64) {
		got, want := BetaQuantile(p, a, b, guess), BetaQuantile(p, a, b, math.NaN())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BetaQuantile(%v, %v, %v, guess %v) = %v, from [0, 1] %v", p, a, b, guess, got, want)
		}
	})
}

// estimatorShape draws a posterior shape the risk estimator can produce:
// Beta(8·p0 + k, 8·(1−p0) + x − k) with p0 from its 1e-5 clamp to 0.5, and
// decayed counts k ≤ x ≤ 50 (a 24-interval half-life holds about 35).
func estimatorShape(rng *rand.Rand) (a, b float64) {
	p0 := 1e-5 * math.Pow(0.5/1e-5, rng.Float64())
	x := 50 * rng.Float64()
	k := x * rng.Float64() * rng.Float64()
	return 8*p0 + k, math.Max(8*(1-p0)+x-k, 1e-3)
}

// TestLawBetaQuantileMonotoneInP: over shapes the estimator produces, the
// quantile never falls as p rises — bisected from [0, 1], or started from the
// quantile at the previous p. The bisection from [0, 1] is monotone in p
// whatever the computed CDF does (at the first midpoint where two levels' paths
// part, the higher goes right), so only a start off that path breaks the law:
// it fails on the mutation that returns the certified bracket shifted by one
// dyadic step.
func TestLawBetaQuantileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ps := make([]float64, 64)
	for c := 0; c < 200; c++ {
		a, b := estimatorShape(rng)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		sort.Float64s(ps)
		prev, prevNear := 0.0, 0.0
		for _, p := range ps {
			q, near := BetaQuantile(p, a, b, math.NaN()), BetaQuantile(p, a, b, prevNear)
			if q < prev || near < prevNear {
				t.Fatalf("Beta(%v, %v): the quantile fell as p rose to %v: %v → %v (from near the last: %v → %v)", a, b, p, prev, q, prevNear, near)
			}
			prev, prevNear = q, near
		}
	}
}

// TestLawBetaQuantileBracketsP: the quantile q is the midpoint of the
// bisection's last interval, of width 2⁻⁵⁰, and the CDF lies below p at its
// low end (unless that is 0) and at or above p at its high end — exactly, over
// shapes the estimator produces and credible levels from 0.5 up. The law
// |I_q − p| ≤ 1e-12 does not hold there: the interval is absolute, and where
// a is small the density at q makes 2⁻⁵¹ worth more than 1e-12 of probability
// (|I_q − p| = 1.2e-3 at a = 0.024, b = 45, p = 0.5, where q = 4.0e-15), and at
// the 2⁻⁵¹ floor I_q can lie below p (0.7992 at a = 0.0069, b = 12.7,
// p = 0.8). Fails on the mutation that stops the bisection at 1e-14.
func TestLawBetaQuantileBracketsP(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for c := 0; c < 2000; c++ {
		a, b := estimatorShape(rng)
		p := 0.5 + 0.5*rng.Float64()
		q := BetaQuantile(p, a, b, math.NaN())
		lo, hi := q-0x1p-51, q+0x1p-51
		if !(lo == 0 || fullBetaCDF(lo, a, b) < p) || !(fullBetaCDF(hi, a, b) >= p) {
			t.Fatalf("Beta(%v, %v) p %v: q = %v, but I at q ∓ 2⁻⁵¹ is %v, %v", a, b, p, q, fullBetaCDF(lo, a, b), fullBetaCDF(hi, a, b))
		}
	}
}
