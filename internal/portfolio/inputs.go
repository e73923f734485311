package portfolio

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/predict"
)

// InputBuilder assembles the per-round solver Inputs shared by the
// single-catalog Planner and the federation's sharded planner: it scores the
// previous forecast, maintains the trailing MAE window behind the Eq. 4
// shortfall charge, refreshes the workload prediction (with the zero-load
// guard), pulls the horizon's price/failure forecasts from the
// ForecastSource and applies the risk overlay on top.
//
// Build returns Inputs with Risk and PrevAlloc unset — the risk matrix and
// the previous executed allocation are the two pieces that differ between
// the unsharded planner (one merged covariance, one allocation vector) and
// the federated planner (per-shard covariances, per-shard slices), so the
// caller supplies them. Keeping everything upstream of that split in one
// type is what makes a single-shard federation reproduce the unsharded
// planner's inputs bit for bit.
type InputBuilder struct {
	Workload predict.Predictor
	Source   ForecastSource
	// RiskOverlay, when set, is consulted before every build: overlay
	// overrides replace the forecast failure probabilities across the whole
	// horizon. Nil = declared probabilities only.
	RiskOverlay OverlayProvider
	// Metrics, when set, publishes the overlay version gauge. Nil is free.
	Metrics *metrics.Registry

	lastPred float64
	maeWin   []float64
	ovEpoch  uint64
}

// Build observes the actual workload of interval t and assembles the Inputs
// for planning interval t+1 over horizon h. Risk and PrevAlloc are left nil
// for the caller. The returned epoch is the overlay epoch in force (0 when
// no overlay applied), used by warm-start invalidation.
func (b *InputBuilder) Build(t, h int, actualLambda float64) (*Inputs, uint64) {
	// Score last forecast and maintain MAE for the Eq. 4 shortfall charge.
	if b.lastPred > 0 {
		b.maeWin = append(b.maeWin, math.Abs(b.lastPred-actualLambda))
		if len(b.maeWin) > 200 {
			b.maeWin = b.maeWin[len(b.maeWin)-200:]
		}
	}
	b.Workload.Observe(actualLambda)

	lambda := b.Workload.Predict(h)
	for i, v := range lambda {
		if v < 1 {
			lambda[i] = 1 // guard against zero-load degeneracy
		}
	}
	b.lastPred = lambda[0]

	var mae float64
	if len(b.maeWin) > 0 {
		var s float64
		for _, v := range b.maeWin {
			s += v
		}
		mae = s / float64(len(b.maeWin))
	}

	in := &Inputs{
		Lambda:       lambda,
		PerReqCost:   b.Source.PerReqCosts(t, h),
		FailProb:     b.Source.FailProbs(t, h),
		ShortfallMAE: mae,
	}
	if b.RiskOverlay != nil {
		if ov := b.RiskOverlay.Overlay(); ov != nil {
			for _, row := range in.FailProb {
				ov.Apply(row)
			}
			b.ovEpoch = ov.Epoch
			if m := b.Metrics; m != nil {
				m.Gauge("spotweb_plan_overlay_version",
					"Version of the risk overlay applied to the last solve.").Set(float64(ov.Version))
			}
		}
	}
	return in, b.ovEpoch
}
