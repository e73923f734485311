package sim

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// ledgerStepHrs is the ledger catalog's interval: a billing hour spans four
// intervals, so an hour can open in one interval and lapse in another.
const ledgerStepHrs = 0.25

// ledgerPrice is market m's price in interval t: a distinct power of two per
// (market, interval), so any multiset of charged hours sums exactly and a
// charge at the wrong interval or market changes the total's bits.
func ledgerPrice(m, t int) float64 { return math.Ldexp(1, 25*m+t-20) }

// ledgerCatalog has one on-demand market (0, which the sentinel stops and
// restarts) and one transient market (1) that is never revoked unless a case
// sets its revocation probability.
func ledgerCatalog(n int) *market.Catalog {
	cat := &market.Catalog{StepHrs: ledgerStepHrs, Intervals: n}
	for m, transient := range []bool{false, true} {
		price := make([]float64, n)
		for t := range price {
			price[t] = ledgerPrice(m, t)
		}
		group := -1
		if transient {
			group = 0
		}
		cat.Markets = append(cat.Markets, &market.Market{
			Type:      market.InstanceType{Name: "ledger", Capacity: 100, OnDemandPrice: 1},
			Transient: transient,
			Price:     &trace.Series{StepHrs: ledgerStepHrs, Values: price},
			FailProb:  &trace.Series{StepHrs: ledgerStepHrs, Values: make([]float64, n)},
			Group:     group,
		})
	}
	return cat
}

// scriptPolicy plays one server in market mkt during the intervals listed in
// on and none otherwise.
type scriptPolicy struct {
	mkt int
	on  map[int]bool
}

func (p *scriptPolicy) Name() string { return "script" }
func (p *scriptPolicy) Decide(t int, _ float64) ([]int, error) {
	counts := make([]int, 2)
	if p.on[t+1] { // Decide(t) plans interval t+1
		counts[p.mkt] = 1
	}
	return counts, nil
}

// intervals returns the set {from, …, to}.
func intervals(from, to int) map[int]bool {
	on := map[int]bool{}
	for t := from; t <= to; t++ {
		on[t] = true
	}
	return on
}

// TestHourlyBillingExactLedger is the billing oracle: each case scripts the
// servers' lives and names every instance-hour they owe as (market, interval
// in which the hour started). The bootstrap launch lands 116 s before interval
// 1, so the first hour opens in interval 0, and hour k in interval 4k. A
// restart is at the start of its interval. Stop grace is 115 s, so a
// scale-down in interval t ends inside it. The last two cases launch a server
// mid-interval while every other server is paid well past that moment, the
// stretch in which the simulator skips the billing scan.
func TestHourlyBillingExactLedger(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		pol      *scriptPolicy
		sentinel bool
		subSteps int
		revokeAt int      // interval in which market 1 is surely revoked (0: never)
		lifetime float64  // Config.MaxLifetimeHrs
		hours    [][2]int // (market, interval) of every charged hour
	}{{
		// Up through interval 5, drained at the start of interval 6: the
		// second hour (opened in interval 4, 1.218 h) is owed in full although
		// the server is gone at 1.532 h.
		name:  "terminated mid-hour owes the full hour",
		n:     12,
		pol:   &scriptPolicy{mkt: 1, on: intervals(1, 5)},
		hours: [][2]int{{1, 0}, {1, 4}},
	}, {
		// Stopped in interval 2, restarted at 0.75 h in interval 3: the hour
		// paid through 1.218 h covers the restart, so no second charge until
		// the next hour opens in interval 4.
		name:     "sentinel stop and restart inside the paid hour",
		n:        8,
		pol:      &scriptPolicy{mkt: 0, on: map[int]bool{1: true, 3: true, 4: true, 5: true, 6: true, 7: true}},
		sentinel: true,
		hours:    [][2]int{{0, 0}, {0, 4}},
	}, {
		// Stopped in interval 2, restarted at 1.75 h in interval 7 after the
		// paid hour lapsed at 1.218 h: billed afresh from the restart, hours
		// opening in intervals 7 and 11.
		name:     "restart after the paid hour lapsed",
		n:        14,
		pol:      &scriptPolicy{mkt: 0, on: map[int]bool{1: true, 7: true, 8: true, 9: true, 10: true, 11: true, 12: true, 13: true}},
		sentinel: true,
		hours:    [][2]int{{0, 0}, {0, 7}, {0, 11}},
	}, {
		// Two sub-steps per interval: an hour opening late in interval 4k
		// (at 4k·0.25 + 0.218 h) is booked at interval 4k+1's first sub-step
		// and still priced at interval 4k's rate.
		name:     "hour-start pricing",
		n:        12,
		pol:      &scriptPolicy{mkt: 1, on: intervals(1, 11)},
		subSteps: 2,
		hours:    [][2]int{{1, 0}, {1, 4}, {1, 8}},
	}, {
		// Market 1 is revoked between 0.55 and 0.70 h in interval 2 and the
		// fleet drops to nothing, so the balancer reprovisions in on-demand
		// market 0 at the warning: that replacement owes an hour opening in
		// interval 2, and is drained again at interval 3, where the planner
		// relaunches in market 1.
		name:     "reprovision at a mid-interval warning",
		n:        6,
		pol:      &scriptPolicy{mkt: 1, on: intervals(1, 5)},
		revokeAt: 2,
		hours:    [][2]int{{1, 0}, {0, 2}, {1, 3}},
	}, {
		// A 0.46-h lifetime expires the bootstrap server at the 0.681-h
		// sub-step (interval 2) and its same-market replacement at 1.144 h
		// (interval 4): each replacement owes an hour from its launch.
		name:     "lifetime replacements billed from their launch",
		n:        6,
		pol:      &scriptPolicy{mkt: 1, on: intervals(1, 5)},
		lifetime: 0.46,
		hours:    [][2]int{{1, 0}, {1, 2}, {1, 4}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cat := ledgerCatalog(tc.n)
			if tc.revokeAt > 0 {
				cat.Markets[1].FailProb.Values[tc.revokeAt] = 1
			}
			s := &Simulator{
				Cfg: Config{
					Seed: 1, TransiencyAware: true, Sentinel: tc.sentinel, SentinelStandby: 1,
					SubSteps: tc.subSteps, MaxLifetimeHrs: tc.lifetime,
				},
				Cat:      cat,
				Workload: &trace.Series{StepHrs: ledgerStepHrs, Values: make([]float64, tc.n)},
				Policy:   tc.pol,
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for _, h := range tc.hours {
				want += ledgerPrice(h[0], h[1])
			}
			if math.Float64bits(res.TotalCost) != math.Float64bits(want) {
				t.Fatalf("TotalCost = %v (%#x), want %v (%#x) from hours %v",
					res.TotalCost, math.Float64bits(res.TotalCost), want, math.Float64bits(want), tc.hours)
			}
		})
	}
}
