package portfolio

import (
	"fmt"

	"repro/internal/linalg"
)

// CostBreakdown decomposes one horizon step's objective into the paper's
// terms — the introspection a deployment uses to understand *why* the
// optimizer chose a portfolio.
type CostBreakdown struct {
	Step         int
	Provisioning float64 // Eq. 3
	SLA          float64 // Eq. 4 (a-priori terms)
	Risk         float64 // Eq. 5
	Churn        float64 // κ‖A_τ − A_{τ−1}‖²
	Total        float64
}

// Breakdown evaluates the objective terms of a plan against the inputs it
// was solved with.
func (c Config) Breakdown(plan *Plan, in *Inputs) ([]CostBreakdown, error) {
	cfg := c.WithDefaults()
	n, err := in.Validate(cfg.Horizon)
	if err != nil {
		return nil, err
	}
	if len(plan.Alloc) != cfg.Horizon {
		return nil, fmt.Errorf("portfolio: plan has %d steps, config horizon %d",
			len(plan.Alloc), cfg.Horizon)
	}
	kappa := cfg.churnWeight(in, n)
	out := make([]CostBreakdown, cfg.Horizon)
	prev := in.PrevAlloc
	for τ := 0; τ < cfg.Horizon; τ++ {
		a := plan.Alloc[τ]
		b := CostBreakdown{Step: τ}
		b.Provisioning = cfg.ProvisioningCost(a, in.Lambda[τ], in.PerReqCost[τ])
		for i, x := range a {
			b.SLA += cfg.PenaltyP * x * (in.FailProb[τ][i]*in.Lambda[τ]*cfg.LongRequestFrac + in.ShortfallMAE)
		}
		b.Risk = cfg.Alpha * a.Dot(in.Risk.MulVec(a, linalg.NewVector(n)))
		if kappa > 0 && prev != nil {
			d := a.Sub(prev)
			b.Churn = kappa * d.Dot(d)
		}
		b.Total = b.Provisioning + b.SLA + b.Risk + b.Churn
		out[τ] = b
		prev = a
	}
	return out, nil
}

// String renders one breakdown row.
func (b CostBreakdown) String() string {
	return fmt.Sprintf("step %d: prov %.4f + sla %.4f + risk %.4f + churn %.4f = %.4f",
		b.Step, b.Provisioning, b.SLA, b.Risk, b.Churn, b.Total)
}
