package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/market"
)

// recordingRisk captures the exact stream the simulator feeds a risk
// estimator, so the contract can be asserted without pulling in the real
// implementation.
type recordingRisk struct {
	ticks   []int
	exposed [][]bool
	prices  [][]float64
	revs    []int
}

func (r *recordingRisk) ObserveRevocation(mkt int, injected bool) {
	r.revs = append(r.revs, mkt)
}

func (r *recordingRisk) ObserveInterval(t int, exposed []bool, prices []float64) {
	r.ticks = append(r.ticks, t)
	r.exposed = append(r.exposed, append([]bool(nil), exposed...))
	r.prices = append(r.prices, append([]float64(nil), prices...))
}

// TestSimFeedsRiskObserver: with an observer attached, the simulator must
// deliver one ObserveInterval per simulated interval (monotone ticks, full
// market vectors, catalog prices) and one ObserveRevocation per revocation
// warning — and attaching the observer must not perturb the simulation
// itself (no RNG draws, no billing changes on the observation path).
func TestSimFeedsRiskObserver(t *testing.T) {
	const hours = 24 * 7
	cat := market.TestbedCatalog(2, hours)
	for _, m := range cat.Markets {
		if m.Transient {
			for i := range m.FailProb.Values {
				m.FailProb.Values[i] = 0.3
			}
		}
	}
	run := func(obs cluster.RiskObserver) *Result {
		s := &Simulator{
			Cfg:      Config{Seed: 3, TransiencyAware: true, Risk: obs},
			Cat:      cat,
			Workload: flatWorkload(hours, 400),
			Policy:   &fixedPolicy{counts: []int{2, 2, 0}, name: "testbed"},
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	rec := &recordingRisk{}
	res := run(rec)
	plain := run(nil)

	if res.TotalCost != plain.TotalCost || res.Revocations != plain.Revocations || res.Served != plain.Served {
		t.Fatalf("observer perturbed the simulation: cost %v vs %v, revs %d vs %d",
			res.TotalCost, plain.TotalCost, res.Revocations, plain.Revocations)
	}

	if len(rec.ticks) != cat.Intervals-1 {
		t.Fatalf("%d ObserveInterval calls for %d simulated intervals", len(rec.ticks), cat.Intervals-1)
	}
	for i, tick := range rec.ticks {
		if tick != i+1 {
			t.Fatalf("tick %d at position %d: intervals must arrive once each, in order", tick, i)
		}
	}
	for i := range rec.ticks {
		if len(rec.exposed[i]) != cat.Len() || len(rec.prices[i]) != cat.Len() {
			t.Fatalf("interval %d: exposure/price vectors not full market width", i)
		}
	}
	// Steady state: both occupied transient markets exposed, on-demand never.
	last := rec.exposed[len(rec.exposed)-1]
	if !last[0] || !last[1] {
		t.Fatalf("occupied transient markets not exposed: %v", last)
	}
	for i, m := range cat.Markets {
		if !m.Transient {
			for k := range rec.exposed {
				if rec.exposed[k][i] {
					t.Fatalf("on-demand market %d marked exposed at interval %d", i, k)
				}
			}
		}
	}
	// Prices are the catalog's, sampled at the interval's tick.
	for k, tick := range rec.ticks {
		for i, m := range cat.Markets {
			if rec.prices[k][i] != m.PriceAt(tick) {
				t.Fatalf("interval %d market %d: price %v != catalog %v", tick, i, rec.prices[k][i], m.PriceAt(tick))
			}
		}
	}

	if len(rec.revs) == 0 {
		t.Fatal("no revocations observed with f=0.3 over a week")
	}
	if len(rec.revs) != res.Revocations {
		t.Fatalf("observed %d revocations, simulator counted %d", len(rec.revs), res.Revocations)
	}
	for _, mkt := range rec.revs {
		if mkt < 0 || mkt >= cat.Len() || !cat.Markets[mkt].Transient {
			t.Fatalf("revocation observed in non-transient market %d", mkt)
		}
	}
}
