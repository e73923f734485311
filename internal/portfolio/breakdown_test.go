package portfolio

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestBreakdownSumsToObjectiveTerms(t *testing.T) {
	cfg := Config{Horizon: 3, Alpha: 5, ChurnKappa: 0.5, LongRequestFrac: 0.2}
	in := uniformInputs(3, 200, []float64{0.001, 0.003}, []float64{0.05, 0.02},
		diagRisk(0.01, 0.02))
	// Previous allocation sits on the dear market so the optimum must move.
	in.PrevAlloc = linalg.Vector{0, 1}
	in.ShortfallMAE = 5
	plan, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cfg.Breakdown(plan, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, b := range rows {
		if b.Provisioning <= 0 || b.SLA <= 0 || b.Risk <= 0 {
			t.Fatalf("terms should all be active: %+v", b)
		}
		if math.Abs(b.Total-(b.Provisioning+b.SLA+b.Risk+b.Churn)) > 1e-9 {
			t.Fatalf("total inconsistent: %+v", b)
		}
		if b.String() == "" {
			t.Fatal("String empty")
		}
	}
	// First step has a churn term (prev = e₁ differs from the optimum).
	if rows[0].Churn <= 0 {
		t.Fatalf("expected first-step churn, got %+v", rows[0])
	}
}

func TestBreakdownWithRiskOp(t *testing.T) {
	n := 3
	fm := &linalg.FactorModel{D: linalg.Vector{0.01, 0.01, 0.01}, F: linalg.NewMatrix(n, 0)}
	cfg := Config{Horizon: 1, Alpha: 5}
	in := &Inputs{
		Lambda:     []float64{100},
		PerReqCost: [][]float64{{0.001, 0.002, 0.003}},
		FailProb:   [][]float64{{0.05, 0.05, 0.05}},
		RiskOp:     fm, RiskDim: n,
	}
	plan, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cfg.Breakdown(plan, in)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Risk <= 0 {
		t.Fatalf("factor-model risk not evaluated: %+v", rows[0])
	}
}

func TestBreakdownValidation(t *testing.T) {
	cfg := Config{Horizon: 2}
	in := uniformInputs(2, 100, []float64{0.001, 0.002}, []float64{0, 0}, diagRisk(0.01, 0.01))
	plan, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong horizon in config vs plan.
	bad := Config{Horizon: 3}
	in3 := uniformInputs(3, 100, []float64{0.001, 0.002}, []float64{0, 0}, diagRisk(0.01, 0.01))
	if _, err := bad.Breakdown(plan, in3); err == nil {
		t.Fatal("expected step-count mismatch error")
	}
}
