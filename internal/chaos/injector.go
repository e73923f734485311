package chaos

import (
	"slices"
	"sort"

	"repro/internal/lb"
)

// Revocation is one compiled forced-revocation event. Markets lists explicit
// catalog targets; Count > 0 instead asks the execution layer to revoke the
// Count most-populated live transient markets at fire time (deterministic:
// ordered by live-server count descending, market index ascending).
type Revocation struct {
	// T is the fire time as a fraction of the run.
	T       float64
	Markets []int
	Count   int
	// WarnScale is the fraction of the normal warning period these
	// revocations leave (1 = full warning, 0 = none). The ambient
	// warning-delay/loss windows apply on top (the minimum wins).
	WarnScale float64
}

// Victims appends to dst the markets rv revokes, given live[m], the number of
// live servers in market m, where a market that is not transient counts 0.
// An explicit market list keeps its order and skips markets out of range or
// with nothing live. A Count storm takes the Count most-populated markets,
// by live count descending, then index ascending — correlated storms take
// out the markets the portfolio leans on hardest — or every live market
// when there are fewer. It allocates only when dst must grow.
func (rv Revocation) Victims(dst, live []int) []int {
	if len(rv.Markets) > 0 {
		for _, m := range rv.Markets {
			if m >= 0 && m < len(live) && live[m] > 0 {
				dst = append(dst, m)
			}
		}
		return dst
	}
	from := len(dst)
	for m, n := range live {
		if n > 0 {
			dst = append(dst, m)
		}
	}
	pops := dst[from:]
	// The comparator is a total order (count, then index), so any correct
	// sort yields the identical sequence.
	slices.SortFunc(pops, func(a, b int) int {
		if live[a] != live[b] {
			return live[b] - live[a]
		}
		return a - b
	})
	return dst[:from+max(0, min(rv.Count, len(pops)))]
}

// span is one [From, To) window carrying a factor and an optional market
// filter.
type span struct {
	From, To float64
	Factor   float64
	Markets  []int
}

func (w span) covers(x float64) bool { return x >= w.From && x < w.To }

func (w span) coversMarket(m int) bool {
	if len(w.Markets) == 0 {
		return true
	}
	for _, mm := range w.Markets {
		if mm == m {
			return true
		}
	}
	return false
}

// forceSpan is a window forcing one LB revocation action.
type forceSpan struct {
	From, To float64
	Action   lb.RevocationAction
}

// Injector is the compiled, immutable fault timeline the simulator, testbed
// driver and load balancer consult. All query methods are read-only and safe
// for concurrent use; every method is a nil-receiver no-op returning the
// fault-free answer, so an unset injector costs one branch — the same
// zero-overhead-disablement pattern as internal/metrics.
type Injector struct {
	revs     []Revocation // sorted by T
	warn     []span       // warning-scale windows (min combines)
	capacity []span       // capacity-factor windows (product combines)
	price    []span       // price-multiplier windows (product combines)
	start    []span       // start-delay-factor windows (max combines)
	blackout []span       // region-outage windows (Markets = dark markets)
	force    []forceSpan
}

// Revocations returns the forced revocations scheduled in [from, to),
// ordered by fire time.
func (in *Injector) Revocations(from, to float64) []Revocation {
	if in == nil || len(in.revs) == 0 {
		return nil
	}
	lo := sort.Search(len(in.revs), func(i int) bool { return in.revs[i].T >= from })
	hi := sort.Search(len(in.revs), func(i int) bool { return in.revs[i].T >= to })
	if lo >= hi {
		return nil
	}
	return in.revs[lo:hi]
}

// WarnScale returns the fraction of the normal revocation-warning period
// available at progress x (1 when no warning fault is active; the minimum of
// all active windows otherwise).
func (in *Injector) WarnScale(x float64) float64 {
	if in == nil {
		return 1
	}
	s := 1.0
	for _, w := range in.warn {
		if w.covers(x) && w.Factor < s {
			s = w.Factor
		}
	}
	return s
}

// CapacityFactor returns the serving-capacity multiplier at progress x
// (1 when no slowdown/flap is active; factors of overlapping windows
// multiply).
func (in *Injector) CapacityFactor(x float64) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, w := range in.capacity {
		if w.covers(x) {
			f *= w.Factor
		}
	}
	return f
}

// PriceFactor returns the price multiplier for a market at progress x
// (1 when no spike is active).
func (in *Injector) PriceFactor(x float64, market int) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, w := range in.price {
		if w.covers(x) && w.coversMarket(market) {
			f *= w.Factor
		}
	}
	return f
}

// SpikesPrices reports whether any price-spike window was compiled; without
// one PriceFactor is 1 for every market at every x.
func (in *Injector) SpikesPrices() bool { return in != nil && len(in.price) > 0 }

// StartDelayFactor returns the launch/replacement start-delay multiplier at
// progress x (≥ 1; the maximum of active jitter windows).
func (in *Injector) StartDelayFactor(x float64) float64 {
	if in == nil {
		return 1
	}
	f := 1.0
	for _, w := range in.start {
		if w.covers(x) && w.Factor > f {
			f = w.Factor
		}
	}
	return f
}

// Blackout reports whether a region outage keeps market dark at progress x —
// live servers there are revoked (with warnScale × the normal warning) and
// replacements cannot be bought until the window closes. warnScale is the
// minimum across active windows covering the market; active is false (and
// warnScale 1) when the market is not blacked out.
func (in *Injector) Blackout(x float64, market int) (warnScale float64, active bool) {
	if in == nil {
		return 1, false
	}
	warnScale = 1
	for _, w := range in.blackout {
		if w.covers(x) && w.coversMarket(market) {
			active = true
			if w.Factor < warnScale {
				warnScale = w.Factor
			}
		}
	}
	return warnScale, active
}

// ForcedAction reports whether a force_action fault overrides the LB's
// revocation decision at progress x, and with which action.
func (in *Injector) ForcedAction(x float64) (lb.RevocationAction, bool) {
	if in == nil {
		return 0, false
	}
	for _, w := range in.force {
		if x >= w.From && x < w.To {
			return w.Action, true
		}
	}
	return 0, false
}

// BalancerHook adapts ForcedAction to the lb.Balancer.ActionOverride field:
// progress reports the current run progress in [0, 1].
func (in *Injector) BalancerHook(progress func() float64) func() (lb.RevocationAction, bool) {
	if in == nil {
		return nil
	}
	return func() (lb.RevocationAction, bool) { return in.ForcedAction(progress()) }
}
