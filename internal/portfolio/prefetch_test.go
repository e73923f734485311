package portfolio

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/market"
	"repro/internal/metrics"
)

// prefetchCall is one Step of a scripted planner run: the interval, and the
// catalog and covariance window the planner holds when it is called.
type prefetchCall struct {
	t      int
	cat    *market.Catalog
	window int
}

// runScript steps a fresh planner through calls and returns its decisions and
// the registry it recorded into.
func runScript(t *testing.T, cfg Config, calls []prefetchCall) ([]*Decision, *metrics.Registry) {
	t.Helper()
	first := calls[0].cat
	pl := NewPlanner(cfg, first, testPredictor(first), ReactiveSource{Cat: first})
	reg := metrics.NewRegistry()
	pl.Metrics = reg
	var out []*Decision
	for _, c := range calls {
		pl.Cat, pl.Source, pl.CovWindow = c.cat, ReactiveSource{Cat: c.cat}, c.window
		dec, err := pl.Step(c.t, sineLoad(c.t))
		if err != nil {
			t.Fatalf("Step(%d): %v", c.t, err)
		}
		out = append(out, dec)
	}
	return out, reg
}

// expectedHits counts the calls the previous call prefetched for: the next
// interval, under the same resolved window and catalog.
func expectedHits(calls []prefetchCall) int {
	resolve := func(c prefetchCall) int {
		if c.window <= 0 {
			return c.cat.TwoWeekWindow()
		}
		return c.window
	}
	hits := 0
	for i := 1; i < len(calls); i++ {
		p, c := calls[i-1], calls[i]
		if c.t == p.t+1 && c.cat == p.cat && resolve(c) == resolve(p) {
			hits++
		}
	}
	return hits
}

func prefetchHits(reg *metrics.Registry) (hits, misses int64) {
	return reg.Counter("spotweb_planner_risk_prefetch_total", "", metrics.L("result", "hit")).Value(),
		reg.Counter("spotweb_planner_risk_prefetch_total", "", metrics.L("result", "miss")).Value()
}

// sameDecisions fails unless two runs planned the same allocations (every
// period, bit for bit), counts and coupled counts.
func sameDecisions(t *testing.T, label string, calls []prefetchCall, got, want []*Decision) {
	t.Helper()
	for r := range want {
		g, w := got[r], want[r]
		if g.Plan.RiskCoupled != w.Plan.RiskCoupled {
			t.Fatalf("%s: call %d (t=%d): RiskCoupled %d, inline %d", label, r, calls[r].t, g.Plan.RiskCoupled, w.Plan.RiskCoupled)
		}
		for i := range w.Counts {
			if g.Counts[i] != w.Counts[i] {
				t.Fatalf("%s: call %d (t=%d): Counts[%d] = %d, inline %d", label, r, calls[r].t, i, g.Counts[i], w.Counts[i])
			}
		}
		for p := range w.Plan.Alloc {
			for i, a := range w.Plan.Alloc[p] {
				if b := g.Plan.Alloc[p][i]; math.Float64bits(b) != math.Float64bits(a) {
					t.Fatalf("%s: call %d (t=%d): Alloc[%d][%d] = %v, inline %v", label, r, calls[r].t, p, i, b, a)
				}
			}
		}
	}
}

// TestPrefetchOracle: a planner that builds round t+1's risk operator during
// round t plans exactly what one building every operator inline plans —
// allocations bit for bit, counts and coupled counts — over 110 rounds of a
// 288-market catalog, through out-of-order Steps and a window and a catalog
// changed between calls, and takes the prefetched operator exactly when the
// previous call built it for this call's key. The inline planner runs at
// GOMAXPROCS = 1, where a planner builds every operator inline.
func TestPrefetchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gen := func(seed int64) *market.Catalog {
		return market.CatalogConfig{Seed: seed, NumTypes: 144, IncludeOnDemand: true, Hours: 24 * 21}.Generate()
	}
	a, b := gen(11), gen(12)
	const t0 = 24 * 15
	var calls []prefetchCall
	run := func(cat *market.Catalog, window int, ts ...int) {
		for _, tt := range ts {
			calls = append(calls, prefetchCall{t: t0 + tt, cat: cat, window: window})
		}
	}
	seq := func(lo, hi int) (ts []int) {
		for tt := lo; tt < hi; tt++ {
			ts = append(ts, tt)
		}
		return ts
	}
	run(a, 0, seq(0, 30)...)
	run(a, 0, 30, 32, 31, 30) // out of order
	run(a, 24*7, seq(31, 46)...)
	run(a, a.TwoWeekWindow(), seq(46, 56)...) // the resolved default: same key as 0
	run(a, 0, seq(56, 66)...)
	run(b, 0, seq(66, 86)...) // another catalog
	run(a, 0, seq(86, 106)...)
	if len(calls) < 100 {
		t.Fatalf("script has %d calls, want ≥ 100", len(calls))
	}
	cfg := Config{Horizon: 4, ChurnKappa: 1}

	runtime.GOMAXPROCS(1)
	inline, reg := runScript(t, cfg, calls)
	if hits, misses := prefetchHits(reg); hits != 0 || misses != 0 {
		t.Fatalf("GOMAXPROCS=1: %d hits, %d misses recorded, want the inline path", hits, misses)
	}

	runtime.GOMAXPROCS(2)
	got, reg := runScript(t, cfg, calls)
	sameDecisions(t, "prefetch", calls, got, inline)
	hits, misses := prefetchHits(reg)
	if want := int64(expectedHits(calls)); hits != want || hits+misses != int64(len(calls)) {
		t.Fatalf("prefetch: %d hits and %d misses over %d calls, want %d hits", hits, misses, len(calls), want)
	}
	// Every call's operator was timed before the call used it; the builds
	// started for a next call that never came may still be running.
	if n := reg.Histogram("spotweb_planner_covariance_seconds", "").Count(); n < int64(len(calls)) || n > misses+int64(len(calls)) {
		t.Fatalf("covariance_seconds observed %d builds, want %d to %d", n, len(calls), misses+int64(len(calls)))
	}
	if n := reg.Histogram("spotweb_planner_risk_prefetch_wait_seconds", "").Count(); n != hits {
		t.Fatalf("prefetch_wait_seconds observed %d waits, want one per hit (%d)", n, hits)
	}
}

// TestPrefetchSmallCatalogInline: a catalog without a lane chunk of transient
// markets never prefetches, and a nil registry records nothing.
func TestPrefetchSmallCatalogInline(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cat := twinCatalog(7) // 7 transient markets, 14 in all
	pl := NewPlanner(Config{Horizon: 3}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
	for tt := 24 * 15; tt < 24*15+3; tt++ {
		if _, err := pl.Step(tt, sineLoad(tt)); err != nil {
			t.Fatal(err)
		}
		if pl.next != nil || pl.prefetchCat != cat || pl.prefetchOK {
			t.Fatalf("t=%d: a %d-transient catalog prefetched (next %v, cached %v)", tt, 7, pl.next != nil, pl.prefetchOK)
		}
	}
	big := twinCatalog(8)
	pl = NewPlanner(Config{Horizon: 3}, big, testPredictor(big), ReactiveSource{Cat: big})
	if _, err := pl.Step(24*15, sineLoad(0)); err != nil {
		t.Fatal(err)
	}
	if pl.next == nil || !pl.prefetchOK {
		t.Fatal("an 8-transient catalog did not prefetch")
	}
}

// TestPlannerCovWindowZero: CovWindow ≤ 0 means 14 days, as documented — it
// used to reach CovarianceMatrix as a window of 0 and plan against the
// diagonal prior.
func TestPlannerCovWindowZero(t *testing.T) {
	cat := market.CatalogConfig{Seed: 5, NumTypes: 12, IncludeOnDemand: true, Hours: 24 * 18}.Generate()
	plan := func(window int) [][]int {
		pl := NewPlanner(Config{Horizon: 4}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
		pl.CovWindow = window
		var out [][]int
		for tt := 24 * 15; tt < 24*15+40; tt++ {
			dec, err := pl.Step(tt, sineLoad(tt))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, dec.Counts)
		}
		return out
	}
	want := plan(cat.TwoWeekWindow())
	for _, window := range []int{0, -3} {
		for r, counts := range plan(window) {
			for i := range counts {
				if counts[i] != want[r][i] {
					t.Fatalf("CovWindow %d: round %d market %d: %d servers, two-week window %d", window, r, i, counts[i], want[r][i])
				}
			}
		}
	}
}
