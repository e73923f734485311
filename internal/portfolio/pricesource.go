package portfolio

import (
	"math"

	"repro/internal/market"
)

// MeanRevertSource is SpotWeb's price predictor as a ForecastSource: spot
// prices are modeled as mean-reverting toward their trailing average, so the
// horizon forecast decays the current deviation geometrically:
//
//	price(t+k) ≈ mean + (price(t) − mean)·e^(−θk)
//
// This uses only past observations (no oracle) yet anticipates that a
// temporarily cheap market will revert — exactly the future knowledge a
// backward-looking policy lacks. Failure probabilities are forecast
// reactively (future = present), matching §5.1's observation that market
// revocation probabilities show little dynamics.
type MeanRevertSource struct {
	Cat *market.Catalog
	// Window is the trailing-mean window in intervals (default 7 days).
	Window int
	// Theta is the per-interval reversion rate (default 0.15).
	Theta float64
}

func (s MeanRevertSource) window() int {
	if s.Window > 0 {
		return s.Window
	}
	return int(7 * 24 / s.Cat.StepHrs)
}

func (s MeanRevertSource) theta() float64 {
	if s.Theta > 0 {
		return s.Theta
	}
	return 0.4
}

// PerReqCosts implements ForecastSource.
func (s MeanRevertSource) PerReqCosts(t, h int) [][]float64 {
	n := s.Cat.Len()
	win := s.window()
	lo := t - win
	if lo < 0 {
		lo = 0
	}
	means := make([]float64, n)
	for i, m := range s.Cat.Markets {
		if t <= lo {
			means[i] = m.PerRequestCostAt(t)
			continue
		}
		var sum float64
		if vals := m.Price.Values; t < len(vals) {
			// The window lies inside the series, where PerRequestCostAt's
			// clamp reads vals[k] itself: the same quotients, the same order.
			capacity := m.Type.Capacity
			for _, v := range vals[lo : t+1] {
				sum += v / capacity
			}
		} else {
			for k := lo; k <= t; k++ {
				sum += m.PerRequestCostAt(k)
			}
		}
		means[i] = sum / float64(t-lo+1)
	}
	now := s.Cat.PerRequestCosts(t)
	th := s.theta()
	out := make([][]float64, h)
	for k := 0; k < h; k++ {
		row := make([]float64, n)
		decay := math.Exp(-th * float64(k+1))
		for i := 0; i < n; i++ {
			row[i] = means[i] + (now[i]-means[i])*decay
		}
		out[k] = row
	}
	return out
}

// FailProbs implements ForecastSource (reactive). Rows are independent
// copies, like ReactiveSource's — see replicateRows.
func (s MeanRevertSource) FailProbs(t, h int) [][]float64 {
	return replicateRows(s.Cat.FailProbs(t), h)
}
