package portfolio

import (
	"math"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
)

// TestServerCountsNonFinite: a NaN or ±Inf allocation gets no servers and
// the call returns — +Inf once sent the top-up loop after an infinite target,
// so each call runs on its own goroutine under a deadline.
func TestServerCountsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan []int, 1)
		go func() { done <- ServerCounts(linalg.Vector{bad, 0.5}, 100, []float64{10, 10}, 0.05) }()
		select {
		case got := <-done:
			if got[0] != 0 || got[1] != 5 {
				t.Errorf("ServerCounts([%v 0.5]) = %v, want [0 5]", bad, got)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("ServerCounts([%v 0.5]) did not return", bad)
		}
	}
}

// nanCatalog is a catalog whose transient markets all start their
// failure-probability series with a NaN: a planner's input rows for interval
// 1 on never read it, but every covariance window with two samples or more
// does, and Validate does not scan M.
func nanCatalog() *market.Catalog {
	cat := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 48}.Generate()
	for _, mk := range cat.Markets {
		if mk.Transient {
			mk.FailProb.Values[0] = math.NaN()
		}
	}
	return cat
}

// TestPlannerRejectsNonFinitePlan: interval 1 plans on the diagonal prior;
// interval 2's NaN covariance ends the solve with NaN allocations, and Step
// must return an error, counted in spotweb_solver_errors_total, instead of a
// Decision sized from them.
func TestPlannerRejectsNonFinitePlan(t *testing.T) {
	cat := nanCatalog()
	reg := metrics.NewRegistry()
	pl := NewPlanner(Config{}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
	pl.Metrics = reg
	if _, err := pl.Step(1, sineLoad(1)); err != nil {
		t.Fatalf("step 1: %v", err)
	}
	if dec, err := pl.Step(2, sineLoad(2)); err == nil {
		t.Fatalf("step 2 planned counts %v from allocations %v", dec.Counts, dec.Plan.First())
	}
	if v := reg.Counter("spotweb_solver_errors_total", "").Value(); v != 1 {
		t.Fatalf("spotweb_solver_errors_total = %d, want 1", v)
	}
}
