package risk

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// noisy returns a deterministic pseudo-noise sample in [-1, 1] — no
// math/rand so the test is reproducible byte-for-byte.
func noisy(i int) float64 {
	return math.Sin(float64(i)*12.9898) * 0.5
}

// TestCusumQuietOnStationaryStream: mean-reverting wiggle around a level
// must never trip the detector at the default tuning.
func TestCusumQuietOnStationaryStream(t *testing.T) {
	cfg := ChangepointConfig{}.withDefaults()
	var c cusum
	for i := 0; i < 500; i++ {
		p := 0.05 * (1 + 0.02*noisy(i))
		if c.observe(p, cfg) {
			t.Fatalf("false changepoint at observation %d", i)
		}
	}
}

// TestCusumDetectsLevelShiftWithinLatencyBound: after warmup on one level, a
// hard shift must trip within a small, bounded number of observations. With
// the per-step z-score clamped at ±8 and drift d, each post-shift step adds
// at most (8−d) to the cumulative sum, so Threshold/(8−d) steps is a hard
// lower bound — the test asserts the detector achieves close to it.
func TestCusumDetectsLevelShiftWithinLatencyBound(t *testing.T) {
	cfg := ChangepointConfig{}.withDefaults()
	var c cusum
	for i := 0; i < 100; i++ {
		p := 0.05 * (1 + 0.02*noisy(i))
		if c.observe(p, cfg) {
			t.Fatalf("tripped during warmup at %d", i)
		}
	}
	minSteps := int(math.Ceil(cfg.Threshold / (cusumZClamp - cfg.Drift)))
	tripped := -1
	for i := 0; i < 20; i++ {
		if c.observe(0.15, cfg) { // 3x level shift
			tripped = i + 1
			break
		}
	}
	if tripped < 0 {
		t.Fatal("level shift never detected")
	}
	if tripped < minSteps {
		t.Fatalf("tripped after %d steps, below the theoretical minimum %d", tripped, minSteps)
	}
	if tripped > minSteps+2 {
		t.Fatalf("detection latency %d observations exceeds bound %d", tripped, minSteps+2)
	}
}

// TestCusumReanchorsAfterTrip: once tripped, the detector restarts at the
// new level — staying at that level must not re-trip.
func TestCusumReanchorsAfterTrip(t *testing.T) {
	cfg := ChangepointConfig{}.withDefaults()
	var c cusum
	for i := 0; i < 100; i++ {
		c.observe(0.05*(1+0.02*noisy(i)), cfg)
	}
	for i := 0; i < 20; i++ {
		if c.observe(0.15, cfg) {
			break
		}
	}
	for i := 0; i < 300; i++ {
		if c.observe(0.15*(1+0.02*noisy(i)), cfg) {
			t.Fatalf("re-tripped at the new level (observation %d)", i)
		}
	}
}

// TestChangepointResetsEstimatorWindow: a detected regime shift must
// discard most of the accumulated evidence (widening the credible bound
// back toward the prior), bump the overlay epoch, and count the shift.
func TestChangepointResetsEstimatorWindow(t *testing.T) {
	cat := testCatalog(1, 0.02, nil)
	e := New(Config{HalfLifeHrs: 1e9}, cat)
	exposed := []bool{true, false}
	prices := []float64{0.05, 0.1}
	i := 0
	for ; i < 200; i++ {
		prices[0] = 0.05 * (1 + 0.02*noisy(i))
		e.ObserveInterval(i, exposed, prices)
	}
	preX := exposure(e, 0)
	_, preUCB, _ := estimate(e, 0)
	if preX < 150 {
		t.Fatalf("exposure %v did not accumulate", preX)
	}
	epoch0 := e.Overlay().Epoch
	for ; i < 250; i++ {
		prices[0] = 0.2
		e.ObserveInterval(i, exposed, prices)
		if e.Changepoints() > 0 {
			break
		}
	}
	if e.Changepoints() != 1 {
		t.Fatal("price regime shift not detected")
	}
	if got := e.Overlay().Epoch; got != epoch0+1 {
		t.Fatalf("overlay epoch %d, want %d", got, epoch0+1)
	}
	postX := exposure(e, 0)
	forget := ChangepointConfig{}.withDefaults().Forget
	if postX > preX*forget+5 {
		t.Fatalf("evidence window not reset: %v -> %v (forget %v)", preX, postX, forget)
	}
	// Evidence is thin again, so with clean exposure the bound must sit
	// WIDER than the richly observed pre-shift bound.
	_, postUCB, _ := estimate(e, 0)
	if postUCB <= preUCB {
		t.Fatalf("uncertainty did not widen after reset: %.4f -> %.4f", preUCB, postUCB)
	}
}

// generatedStretch draws one market's price process the way
// market.CatalogConfig.Generate does (discount depth, volatility and
// reversion from the same ranges, hourly samples) with its demand jumps
// switched off: no regime shift, so every trip is a false alarm.
func generatedStretch(seed int64, rng *rand.Rand, hours int) []float64 {
	return trace.PriceConfig{
		Seed: seed, OnDemandPrice: 1, MeanDiscount: 0.25 * (0.6 + 0.8*rng.Float64()),
		Volatility: 0.18 + 0.2*rng.Float64(), Reversion: 0.3 + 0.4*rng.Float64(),
		Hours: hours, SamplesPerHour: 1,
	}.Generate().Values
}

// TestLawChangepointFalseAlarmRate states the default detector's operating
// point (Page 1954) on generated prices, as measured, with a margin:
//
//   - ARL₀, the average run length to a false alarm on jump-free stretches,
//     reads 664.5 intervals (400 stretches × 2,000 h); the law holds it at
//     ≥ 500.
//   - On a ×1.4 level shift (the generator's smallest JumpMagnitude, 0.4)
//     injected after 100 quiet hours into 2,000 stretches, 167 trips come
//     within 7 intervals (the longest generated jump) and 460 within 48, at a
//     median delay of 10; the law holds them at ≥ 125, ≥ 345 and ≤ 13.
//
// Each bound is the measured value with a 25 % margin. A hair-triggered
// detector fails the first clause, a deafened one the second. The bounds
// record the tuning; they are not a target for it.
func TestLawChangepointFalseAlarmRate(t *testing.T) {
	cfg := ChangepointConfig{}.withDefaults()

	rng := rand.New(rand.NewSource(1))
	alarms, obs := 0, 0
	for m := 0; m < 400; m++ {
		var c cusum
		for _, p := range generatedStretch(int64(m)*7919, rng, 2000) {
			if c.observe(p, cfg) {
				alarms++
			}
			obs++
		}
	}
	arl0 := float64(obs) / float64(max(alarms, 1))
	if arl0 < 500 {
		t.Errorf("ARL₀ %.1f intervals (%d false alarms in %d), want ≥ 500", arl0, alarms, obs)
	}

	rng = rand.New(rand.NewSource(2))
	var delays []int
	within7 := 0
	for m := 0; m < 2000; m++ {
		var c cusum
		for i, p := range generatedStretch(int64(m)*104729+5, rng, 148) {
			if i >= 100 {
				p *= 1.4
			}
			if c.observe(p, cfg) && i >= 100 {
				d := i - 99
				delays = append(delays, d)
				if d <= 7 {
					within7++
				}
				break
			}
		}
	}
	slices.Sort(delays)
	median := 0
	if len(delays) > 0 {
		median = delays[len(delays)/2]
	}
	if within7 < 125 || len(delays) < 345 || median > 13 {
		t.Errorf("×1.4 shift: %d detected within 7 intervals (want ≥ 125), %d within 48 (want ≥ 345), median delay %d (want ≤ 13)",
			within7, len(delays), median)
	}
	t.Logf("ARL₀ %.1f (%d alarms in %d); ×1.4 shift: %d within 7, %d within 48 of 2000, median delay %d",
		arl0, alarms, obs, within7, len(delays), median)
}
