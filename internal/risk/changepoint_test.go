package risk

import (
	"math"
	"testing"
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
