package stats

import "math"

// BetaCDF returns the regularized incomplete beta function I_x(a, b) — the
// CDF of the Beta(a, b) distribution at x. Computed via the standard
// continued-fraction expansion (Numerical Recipes §6.4, modified Lentz),
// using the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) to keep the fraction in its
// rapidly converging regime. Accurate to ~1e-12 for the shape range the risk
// estimator uses (a down to ~1e-3, b up to ~1e6).
func BetaCDF(x, a, b float64) float64 {
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

// logBeta returns lgΓ(a+b) − lgΓ(a) − lgΓ(b), subtracted left to right: the
// negated log of the Beta function, which is constant over a quantile's
// bisection.
func logBeta(a, b float64) float64 {
	lg1, _ := math.Lgamma(a + b)
	lg2, _ := math.Lgamma(a)
	lg3, _ := math.Lgamma(b)
	return lg1 - lg2 - lg3
}

// betaCDF is BetaCDF for x in (0, 1) with lb = logBeta(a, b). The exponent
// adds lb, a·ln x and b·ln(1−x) in BetaCDF's original left-to-right order,
// so hoisting lb changes no bit.
func betaCDF(x, a, b, lb float64) float64 {
	front := math.Exp(lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
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
// with I_x(a,b) = p. Bisection on the monotone CDF: slower than a Newton
// refinement but unconditionally robust for the extreme shapes cold-market
// priors produce (a ≪ 1), and the estimator only evaluates it once per
// market per interval. The log-Beta term is computed once, not per step;
// every midpoint lies strictly inside (0, 1), where BetaCDF is betaCDF, so the
// result is bit-identical to bisecting on BetaCDF.
func BetaQuantile(p, a, b float64) float64 {
	if math.IsNaN(p) || a <= 0 || b <= 0 {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lb := logBeta(a, b)
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if betaCDF(mid, a, b, lb) < p {
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
