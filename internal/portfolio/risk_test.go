package portfolio

import (
	"testing"

	"repro/internal/linalg"
)

// TestValidateRiskRepresentations: Validate returns an error — it does not
// panic — for a missing risk, a non-square dense matrix, and a dense or
// compact risk whose order differs from the market count. A well-sized
// compact operator solves, and ADMM refuses it (TestValidationErrors checks
// the message).
func TestValidateRiskRepresentations(t *testing.T) {
	inputs := func(risk linalg.MatVec) *Inputs {
		return &Inputs{
			Lambda:     []float64{100},
			PerReqCost: [][]float64{{0.01, 0.01}},
			FailProb:   [][]float64{{0, 0}},
			Risk:       risk,
		}
	}
	dense3 := diagRisk(0.01, 0.01, 0.01)
	dense3.Set(0, 1, 0.001)
	dense3.Set(1, 0, 0.001)
	compact3, _ := linalg.CompactRisk(dense3) // index 2 is isolated
	if _, ok := compact3.(*linalg.Compact); !ok {
		t.Fatalf("CompactRisk returned %T, want a *linalg.Compact", compact3)
	}
	for name, risk := range map[string]linalg.MatVec{
		"missing":          nil,
		"non-square dense": linalg.NewMatrix(2, 3),
		"dense":            dense3,
		"compact":          compact3,
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Validate panicked: %v", name, r)
				}
			}()
			if _, err := inputs(risk).Validate(1); err == nil {
				t.Fatalf("%s: Validate accepted it", name)
			}
		}()
	}
	compact2, _ := linalg.CompactRisk(diagRisk(1, 1)) // both indices isolated
	if _, ok := compact2.(*linalg.Compact); !ok {
		t.Fatalf("CompactRisk returned %T, want a *linalg.Compact", compact2)
	}
	in := inputs(compact2)
	if _, err := Optimize(Config{Horizon: 1}, in); err != nil {
		t.Fatalf("compact solve failed: %v", err)
	}
	if _, err := Optimize(Config{Horizon: 1, Solver: SolverADMM}, in); err == nil {
		t.Fatal("ADMM without a dense Risk should fail")
	}
}
