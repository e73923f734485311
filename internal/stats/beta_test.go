package stats

import (
	"math"
	"math/rand"
	"testing"
)

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
	return betaCDF(x, a, b, logBeta(a, b))
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
				x := BetaQuantile(p, a, b)
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
		x := BetaQuantile(p, 3, 7)
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
// bisection evaluating lgammaBetaCDF, log-Beta term and all, at every step.
func bisectBetaCDF(p, a, b float64) float64 {
	if math.IsNaN(p) || a <= 0 || b <= 0 {
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
		got, want := BetaQuantile(p, a, b), bisectBetaCDF(p, a, b)
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
