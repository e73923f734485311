package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/lb"
	"repro/internal/linalg"
)

// Compile expands a scenario into the immutable fault timeline an Injector
// serves. markets is the catalog size the scenario runs against (used to
// bound explicit targets and size the copula). Compile is deterministic:
// the same (scenario, seed, markets) triple always yields the same timeline.
func Compile(sc *Scenario, seed int64, markets int) (*Injector, error) {
	if sc == nil {
		return nil, fmt.Errorf("chaos: nil scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	for _, f := range sc.Faults {
		for _, m := range f.Markets {
			if m < 0 || (markets > 0 && m >= markets) {
				return nil, fmt.Errorf("chaos: scenario %q targets market %d outside catalog of %d", sc.Name, m, markets)
			}
		}
		if f.Region != "" {
			mkts, ok := sc.RegionMap[f.Region]
			if !ok {
				return nil, fmt.Errorf("chaos: scenario %q targets region %q absent from region_map", sc.Name, f.Region)
			}
			for _, m := range mkts {
				if m < 0 || (markets > 0 && m >= markets) {
					return nil, fmt.Errorf("chaos: scenario %q region %q maps market %d outside catalog of %d", sc.Name, f.Region, m, markets)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(sc.Faults))*0x9e3779b9))
	var chol *linalg.CholeskyFactor
	if len(sc.Correlation) > 0 {
		var err error
		if chol, err = corrCholesky(sc.Correlation); err != nil {
			return nil, fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
		}
	}

	in := &Injector{}
	for _, f := range sc.Faults {
		switch f.Kind {
		case KindStorm:
			ws := 1.0
			if f.WarnScale != nil {
				ws = *f.WarnScale
			}
			rv := Revocation{T: f.Start, WarnScale: ws, Count: f.Count}
			rv.Markets = append(rv.Markets, f.Markets...)
			if f.Region != "" {
				rv.Markets = appendUnique(rv.Markets, sc.RegionMap[f.Region])
			}
			if f.Prob > 0 && chol != nil {
				rv.Markets = appendCopulaVictims(rv.Markets, rng, chol, f.Prob, markets)
			}
			if len(rv.Markets) == 0 && rv.Count <= 0 && f.Region == "" {
				// A copula draw can come up empty; keep the storm meaningful
				// by revoking the single most-populated market. Region
				// targeting deliberately skips this: a region with zero
				// mapped markets injects nothing.
				rv.Count = 1
			}
			in.revs = append(in.revs, rv)
		case KindRegionOutage:
			// A region outage is a storm over the region's markets plus a
			// purchase blackout for the window: revoked capacity cannot be
			// replaced in the dark region until the window closes.
			ws := 1.0
			if f.WarnScale != nil {
				ws = *f.WarnScale
			}
			mkts := append([]int(nil), sc.RegionMap[f.Region]...)
			sort.Ints(mkts)
			// A region mapping to zero markets injects nothing — an empty
			// Markets filter on a span would otherwise mean "all markets".
			if len(mkts) > 0 {
				in.revs = append(in.revs, Revocation{T: f.Start, Markets: mkts, WarnScale: ws})
				in.blackout = append(in.blackout, span{
					From: f.Start, To: f.Start + f.Duration, Factor: ws, Markets: mkts,
				})
			}
		case KindWarningDelay:
			in.warn = append(in.warn, span{From: f.Start, To: f.Start + f.Duration, Factor: f.Severity})
		case KindWarningLoss:
			in.warn = append(in.warn, span{From: f.Start, To: f.Start + f.Duration, Factor: 0})
		case KindSlowdown:
			in.capacity = append(in.capacity, span{From: f.Start, To: f.Start + f.Duration, Factor: f.Severity})
		case KindFlap:
			// A square wave: degraded for the first half of every period.
			for t := f.Start; t < f.Start+f.Duration; t += f.Period {
				end := math.Min(t+f.Period/2, f.Start+f.Duration)
				in.capacity = append(in.capacity, span{From: t, To: end, Factor: f.Severity})
			}
		case KindPriceSpike:
			in.price = append(in.price, span{
				From: f.Start, To: f.Start + f.Duration, Factor: f.Severity,
				Markets: append([]int(nil), f.Markets...),
			})
		case KindStartJitter:
			// One deterministic draw per window: jitter is random across
			// seeds but fixed within a run.
			u := 0.5 + rng.Float64()
			in.start = append(in.start, span{From: f.Start, To: f.Start + f.Duration, Factor: 1 + f.Severity*u})
		case KindForceAction:
			in.force = append(in.force, forceSpan{
				From: f.Start, To: f.Start + f.Duration,
				Action: lb.RevocationAction(int(f.Severity)),
			})
		}
	}
	sort.SliceStable(in.revs, func(i, j int) bool { return in.revs[i].T < in.revs[j].T })
	return in, nil
}

// appendUnique appends the members of add not already in dst, preserving
// dst's order and sorting the combined result.
func appendUnique(dst, add []int) []int {
	seen := make(map[int]bool, len(dst))
	for _, m := range dst {
		seen[m] = true
	}
	for _, m := range add {
		if !seen[m] {
			seen[m] = true
			dst = append(dst, m)
		}
	}
	sort.Ints(dst)
	return dst
}

// corrCholesky factors a correlation matrix, ridging the diagonal until it
// is numerically positive definite (scenario matrices are hand-written and
// often sit on the PSD boundary).
func corrCholesky(corr [][]float64) (*linalg.CholeskyFactor, error) {
	n := len(corr)
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, (corr[i][j]+corr[j][i])/2)
			}
		}
	}
	for ridge := 0.0; ridge <= 0.2; ridge += 0.02 {
		if ridge > 0 {
			m.AddDiag(0.02)
		}
		if ch, err := linalg.Cholesky(m); err == nil {
			return ch, nil
		}
	}
	return nil, fmt.Errorf("correlation matrix is not positive definite")
}

// appendCopulaVictims samples the joint storm victim set: one shared latent
// Gaussian vector z = L·g, revoking market i when Φ(z_i) falls in the lower
// prob-quantile — the same correlated-failure model the simulator samples
// naturally, concentrated into a single instant.
func appendCopulaVictims(dst []int, rng *rand.Rand, chol *linalg.CholeskyFactor, prob float64, markets int) []int {
	n := chol.Dim()
	g := linalg.NewVector(n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	z := chol.MulL(g)
	seen := make(map[int]bool, len(dst))
	for _, m := range dst {
		seen[m] = true
	}
	for i := 0; i < n; i++ {
		if markets > 0 && i >= markets {
			break
		}
		if !seen[i] && 0.5*(1+math.Erf(z[i]/math.Sqrt2)) < prob {
			dst = append(dst, i)
		}
	}
	sort.Ints(dst)
	return dst
}
