package portfolio

import (
	"math"
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/risk"
)

// stubOverlay is a hand-cranked OverlayProvider: tests swap the published
// pointer between planner rounds exactly as a live estimator would.
type stubOverlay struct{ ov *market.Overlay }

func (s *stubOverlay) Overlay() *market.Overlay { return s.ov }

// TestPlannerAppliesOverlayToFailProbs: condemning one transient market via
// the overlay must push allocation out of it relative to the same solve
// without the overlay — proof that the override reaches the optimizer's
// failure inputs, not just the metrics.
func TestPlannerAppliesOverlayToFailProbs(t *testing.T) {
	cat := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 48}.Generate()

	alloc := func(provider OverlayProvider) []float64 {
		pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5, LongRequestFrac: 0.3},
			cat, testPredictor(cat), ReactiveSource{Cat: cat})
		pl.RiskOverlay = provider
		var shares []float64
		for tick := 0; tick < 6; tick++ {
			dec, err := pl.Step(tick, sineLoad(tick))
			if err != nil {
				t.Fatalf("step %d: %v", tick, err)
			}
			shares = dec.Plan.First()
		}
		return shares
	}

	// Condemn the transient market the baseline solve leans on hardest, so
	// the override has real allocation to displace.
	base := alloc(nil)
	condemned := -1
	for i, m := range cat.Markets {
		if m.Transient && (condemned < 0 || base[i] > base[condemned]) {
			condemned = i
		}
	}
	if condemned < 0 || base[condemned] <= 0.05 {
		t.Fatalf("no transient market carries baseline allocation (max share %v)", base)
	}

	fail := make([]float64, cat.Len())
	for i := range fail {
		fail[i] = -1 // no override
	}
	fail[condemned] = 0.9
	withOverlay := alloc(&stubOverlay{ov: &market.Overlay{FailProb: fail, Version: 1}})[condemned]
	baseline := base[condemned]

	if withOverlay >= baseline {
		t.Fatalf("condemned market share %.4f with overlay, %.4f without — overlay not applied", withOverlay, baseline)
	}
	if withOverlay > 0.02 {
		t.Fatalf("condemned market still holds %.4f of the portfolio", withOverlay)
	}
}

// TestWarmStateSurvivesOverlayEpoch: the risk overlay rewrites only the
// failure inputs, a linear term of the objective, so neither its per-round
// drift (a Version bump) nor a changepoint (an Epoch bump) may drop the warm
// state. Against a live estimator whose price stream steps, a planner that
// keeps its warm state plans the same server counts as a twin that solves
// cold on every epoch-bump round, at an objective within solver tolerance,
// and needs strictly fewer iterations over those rounds.
func TestWarmStateSurvivesOverlayEpoch(t *testing.T) {
	t.Run("version drift", func(t *testing.T) {
		cat := market.CatalogConfig{Seed: 11, NumTypes: 6, Hours: 48}.Generate()
		fail := make([]float64, cat.Len())
		for i := range fail {
			fail[i] = -1
		}
		prov := &stubOverlay{ov: &market.Overlay{FailProb: fail, Version: 1}}
		pl := NewPlanner(Config{Horizon: 4, ChurnKappa: 0.5}, cat, testPredictor(cat), ReactiveSource{Cat: cat})
		pl.RiskOverlay = prov
		for tick := 0; tick < 3; tick++ {
			if _, err := pl.Step(tick, sineLoad(tick)); err != nil {
				t.Fatalf("step %d: %v", tick, err)
			}
		}
		prov.ov = &market.Overlay{FailProb: fail, Version: 2}
		dec, err := pl.Step(3, sineLoad(3))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Plan.WarmStarted {
			t.Fatal("version-only overlay drift dropped the warm start")
		}
	})

	t.Run("estimator epochs", func(t *testing.T) {
		const rounds, objTol = 48, 1e-4
		cat := market.CatalogConfig{Seed: 21, NumTypes: 16, Hours: 48, SamplesPerHour: 6}.Generate()
		est := risk.New(risk.Config{}, cat)
		// L > 0, so the overlay's failure estimates reach the objective.
		cfg := Config{Horizon: 4, ChurnKappa: 0.5, LongRequestFrac: 0.3}
		warm := NewPlanner(cfg, cat, testPredictor(cat), ReactiveSource{Cat: cat})
		twin := NewPlanner(cfg, cat, testPredictor(cat), ReactiveSource{Cat: cat})
		warm.RiskOverlay, twin.RiskOverlay = est, est

		// Each market's price wiggles around its level; from round 12 on,
		// one market every 4 rounds triples its level, which trips its
		// CUSUM two or three rounds later and bumps the estimator's epoch.
		level := make([]float64, cat.Len())
		for i, m := range cat.Markets {
			level[i] = m.PriceAt(0)
		}
		prices := make([]float64, cat.Len())
		exposed := make([]bool, cat.Len())

		var lastEpoch uint64
		bumps, warmIters, coldIters, warmStarted := 0, 0, 0, 0
		for tick := 0; tick < rounds; tick++ {
			epoch := est.Overlay().Epoch
			bump := epoch != lastEpoch
			lastEpoch = epoch
			twin.Cfg.DisableWarmStart = bump
			dw, err := warm.Step(tick, sineLoad(tick))
			if err != nil {
				t.Fatalf("warm step %d: %v", tick, err)
			}
			dc, err := twin.Step(tick, sineLoad(tick))
			if err != nil {
				t.Fatalf("twin step %d: %v", tick, err)
			}
			if !slices.Equal(dw.Counts, dc.Counts) {
				t.Fatalf("round %d (bump %v): warm counts %v, cold-on-bump twin %v", tick, bump, dw.Counts, dc.Counts)
			}
			if d := math.Abs(dw.Plan.Objective - dc.Plan.Objective); d > objTol*math.Max(1, math.Abs(dc.Plan.Objective)) {
				t.Fatalf("round %d (bump %v): objective %v vs twin %v", tick, bump, dw.Plan.Objective, dc.Plan.Objective)
			}
			if bump {
				bumps++
				warmIters += dw.Plan.Iterations
				coldIters += dc.Plan.Iterations
				if dw.Plan.WarmStarted {
					warmStarted++
				}
			}

			for i := range prices {
				if tick >= 12 && (tick-12)%4 == 0 && (tick-12)/4%cat.Len() == i {
					level[i] *= 3
				}
				prices[i] = level[i] * (1 + 0.02*math.Sin(float64(tick*cat.Len()+i)*12.9898))
				exposed[i] = dw.Counts[i] > 0
				if exposed[i] && (tick+i)%5 == 0 {
					est.ObserveRevocation(i, false)
				}
			}
			est.ObserveInterval(tick, exposed, prices)
		}
		if bumps < 4 {
			t.Fatalf("only %d epoch-bump rounds in %d; the price steps did not trip the detector", bumps, rounds)
		}
		if warmIters >= coldIters {
			t.Fatalf("over %d epoch-bump rounds the warm planner took %d iterations (%d warm-started), the cold twin %d",
				bumps, warmIters, warmStarted, coldIters)
		}
		t.Logf("%d epoch-bump rounds: %d iterations warm (%d warm-started), %d cold", bumps, warmIters, warmStarted, coldIters)
	})
}
