package stats

import "math"

// logBeta returns lgΓ(a+b) − lgΓ(a) − lgΓ(b), subtracted left to right: the
// negated log of the Beta function, which is constant over a quantile's
// bisection. It also returns δ(a, b), the margin a warm bracket's ends must
// clear (see warmBracket).
//
// δ bounds how far the computed I_x(a, b) can fall going right — the CDF
// betaCDF computes is not monotone. Each evaluation's absolute error is I
// times the relative error of front and of the fraction, plus a few roundings
// of a value ≤ 1. front's exponent carries three Lgamma values of about one
// ulp each and two subtractions: ≲ 4u·S with u = 2⁻⁵² and S = |lgΓ(a+b)| +
// |lgΓ(a)| + |lgΓ(b)|. Where I is not negligible, |a·ln x| + |b·ln(1−x)| ≲ S
// too, so the two additions and the two logs add ≲ 4u·S, and exp, the fraction's
// rounding, the division and 1 − … a few u more: ≲ 8u·(S + 1) per value, twice
// that between two values. The continued fraction stops once a factor is within
// 3e-14 of 1, so its truncation differs between neighbouring x by up to
// ≈ 3e-14 on each side: δ = 16u·(S + 1) + 6e-14. Where the formula switches at
// x* = (a+1)/(a+b+2), lgΓ's shared error shows whole, as a drop of ≈ u·S:
// 8.7e-10 at a = 0.5, b = 1e6. Measured over a ∈ [8e-5, 50], b ∈ [1e-3, 1e6]
// and over random shapes with both up to 1e6, in windows of dyadic points
// around x* and the quantiles at levels from 2⁻²⁰ to 2⁻⁵⁰, no drop exceeded
// 2.8u·(S + 1).
func logBeta(a, b float64) (lb, delta float64) {
	lg1, _ := math.Lgamma(a + b)
	lg2, _ := math.Lgamma(a)
	lg3, _ := math.Lgamma(b)
	return lg1 - lg2 - lg3, 0x1p-48*(math.Abs(lg1)+math.Abs(lg2)+math.Abs(lg3)+1) + 6e-14
}

// betaCDF returns the regularized incomplete beta function I_x(a, b) — the
// CDF of the Beta(a, b) distribution — for x in (0, 1), with lb =
// logBeta(a, b), and front = x^a·(1−x)^b/B(a, b), whose quotient by x(1−x) is
// the density. Computed via the standard continued-fraction expansion
// (Numerical Recipes §6.4, modified Lentz), using the symmetry I_x(a,b) =
// 1 − I_{1−x}(b,a) to keep the fraction in its rapidly converging regime.
// Accurate to ~1e-12 for the shape range the risk estimator uses (a down to
// ~1e-3, b up to ~1e6). The exponent adds lb, a·ln x and b·ln(1−x) left to
// right, the order of the lgamma form, so hoisting lb changes no bit.
func betaCDF(x, a, b, lb float64) (cdf, front float64) {
	front = math.Exp(lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a, front
	}
	return 1 - front*betaCF(1-x, b, a)/b, front
}

// betaCF evaluates the continued fraction of the incomplete beta function by
// the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 400
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm, fm2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((qam + fm2) * (a + fm2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + fm2) * (qap + fm2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// BetaQuantile returns the p-quantile of the Beta(a, b) distribution — the x
// with I_x(a,b) = p — by bisection on the monotone CDF, starting near guess.
// Bisection is slower than a Newton refinement but unconditionally robust for
// the extreme shapes cold-market priors produce (a ≪ 1). The log-Beta term is
// computed once, not per step; every midpoint lies strictly inside (0, 1), so
// the result is bit-identical to bisecting on the CDF that recomputes it. A
// non-finite or non-positive shape, or a NaN p, gives NaN.
//
// The result does not depend on guess, bit for bit. The bisection from [0, 1]
// only visits dyadic intervals [k·2⁻ʲ, (k+1)·2⁻ʲ] and stops at width 2⁻⁵⁰, so
// it ends where it does because of the CDF's sign against p at the midpoints of
// the intervals it passed. A guess in (0, 1) starts the same loop from a dyadic
// interval that warmBracket certifies to be on that path. Any other guess (NaN
// for none) starts it from [0, 1], and so does a shape above 1e6, or both
// above 1e4: there the continued fraction can stop unconverged at its 400-term
// cap (it does from a = 2e5, b = 1e6), and δ bounds nothing.
func BetaQuantile(p, a, b, guess float64) float64 {
	if math.IsNaN(p) || !(a > 0) || !(b > 0) || math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lb, delta := logBeta(a, b)
	lo, hi := 0.0, 1.0
	if guess > 0 && guess < 1 && max(a, b) <= 1e6 && min(a, b) <= 1e4 {
		lo, hi = warmBracket(p, a, b, lb, delta, guess)
	}
	for hi-lo >= 1e-15 {
		mid := 0.5 * (lo + hi)
		if c, _ := betaCDF(mid, a, b, lb); c < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// warmBracket returns a dyadic interval [lo, hi] the cold bisection for
// (p, a, b) passes through, found from x in (0, 1).
//
// Halley steps on I_x − p refine x; their arithmetic only makes a guess, so it
// need not be exact. The interval at least as wide as the last step plus the
// distance δ spans at the density there is snapped around x. The bisection
// reaches a dyadic interval when it went right at every left end and left at
// every right end of the intervals containing it, as the CDF computed there
// decides, and a grade says how far an evaluated end vouches for that: the
// computed CDF never falls by more than δ going right (logBeta), so I_lo < p − δ
// decides every left end at or left of lo, I_hi > p + δ every right end at or
// right of hi, and an end on its side of p by less decides only itself. 0 and 1
// are no midpoint. Walking up the containing intervals, an end not yet vouched
// for is evaluated each time it moves, and an end on the wrong side of p moves
// the bracket up to the interval it is the midpoint of; [0, 1] ends the walk.
func warmBracket(p, a, b, lb, delta, x float64) (lo, hi float64) {
	step, pdf := 1.0, 0.0
	for i := 0; i < 3 && math.Abs(step) > 0x1p-50; i++ {
		c, front := betaCDF(x, a, b, lb)
		pdf = front / (x * (1 - x))
		if !(pdf > 0) || math.IsInf(pdf, 0) {
			return 0, 1
		}
		u := (c - p) / pdf
		step = u / (1 - 0.5*math.Min(1, u*((a-1)/x-(b-1)/(1-x))))
		switch next := x - step; {
		case next <= 0:
			x *= 0.5
		case next >= 1:
			x = 0.5 * (1 + x)
		case next > 0 && next < 1:
			x = next
		default: // a NaN step
			return 0, 1
		}
	}
	// grade is 1 when the end x vouches for every end beyond it, 0 when only
	// for itself and −1 when it is on the wrong side of p.
	grade := func(x float64, low bool) int {
		if x == 0 || x == 1 {
			return 1
		}
		c, _ := betaCDF(x, a, b, lb)
		d := c - p
		if low {
			d = -d
		}
		switch {
		case d > delta:
			return 1
		case d > 0 || d == 0 && !low:
			return 0
		}
		return -1
	}
	j := 50
	if w := math.Abs(step) + delta/pdf; w > 0x1p-50 {
		_, e := math.Frexp(w) // 2^(e−1) ≤ w < 2^e
		j = max(-e, 0)
	}
	k := math.Floor(math.Ldexp(x, j))
	lo, hi = math.Ldexp(k, -j), math.Ldexp(k+1, -j)
	gLo, gHi := grade(lo, true), grade(hi, false)
	level, kl := j, k
	for gLo < 1 || gHi < 1 {
		j--
		k = math.Floor(0.5 * k)
		l, h := math.Ldexp(k, -j), math.Ldexp(k+1, -j)
		if l != lo && gLo < 1 {
			if gLo < 0 {
				level, kl = j, k
			}
			gLo = grade(l, true)
		}
		if h != hi && gHi < 1 {
			if gHi < 0 {
				level, kl = j, k
			}
			gHi = grade(h, false)
		}
		lo, hi = l, h
	}
	return math.Ldexp(kl, -level), math.Ldexp(kl+1, -level)
}
