package portfolio

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// MPO with a structured risk operator must match MPO with the equivalent
// dense matrix.
func TestOptimizeWithSparseRiskMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n, h := 8, 3
	dense := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		dense.Set(i, i, 0.005+0.01*rng.Float64())
		if i%2 == 0 && i+1 < n {
			v := 0.003 * rng.Float64()
			dense.Set(i, i+1, v)
			dense.Set(i+1, i, v)
		}
	}
	costs := make([]float64, n)
	fails := make([]float64, n)
	for i := 0; i < n; i++ {
		costs[i] = 0.001 + 0.01*rng.Float64()
		fails[i] = 0.1 * rng.Float64()
	}
	cfg := Config{Horizon: h, Alpha: 5, ChurnKappa: 0.5}
	mk := func() *Inputs {
		in := &Inputs{}
		for τ := 0; τ < h; τ++ {
			in.Lambda = append(in.Lambda, 500)
			in.PerReqCost = append(in.PerReqCost, costs)
			in.FailProb = append(in.FailProb, fails)
		}
		return in
	}

	inDense := mk()
	inDense.Risk = dense
	pd, err := Optimize(cfg, inDense)
	if err != nil {
		t.Fatal(err)
	}

	inSparse := mk()
	inSparse.Risk = linalg.NewCSRFromDense(dense, 0)
	ps, err := Optimize(cfg, inSparse)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanOptimal(t, cfg, inDense, pd, 1e-6)
	assertPlanOptimal(t, cfg, inSparse, ps, 1e-6)
	for i := range pd.First() {
		if math.Abs(pd.First()[i]-ps.First()[i]) > 1e-5 {
			t.Fatalf("sparse vs dense allocation mismatch: %v vs %v", ps.First(), pd.First())
		}
	}
}

func TestOptimizeWithFactorRisk(t *testing.T) {
	n, h := 6, 2
	f := linalg.NewMatrix(n, 1)
	for i := 0; i < 3; i++ { // first three markets load on the factor
		f.Set(i, 0, 0.1)
	}
	d := linalg.NewVector(n)
	d.Fill(0.005)
	fm := &linalg.FactorModel{D: d, F: f}

	costs := make([]float64, n)
	fails := make([]float64, n)
	for i := 0; i < n; i++ {
		costs[i] = 0.002 // identical costs: risk decides
		fails[i] = 0.05
	}
	in := &Inputs{Risk: fm}
	for τ := 0; τ < h; τ++ {
		in.Lambda = append(in.Lambda, 500)
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	plan, err := Optimize(Config{Horizon: h, Alpha: 50, AMin: 1, AMax: 1.0001}, in)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanOptimal(t, Config{Horizon: h, Alpha: 50, AMin: 1, AMax: 1.0001}, in, plan, 1e-6)
	a := plan.First()
	// The factor-loaded markets are mutually correlated: the optimizer
	// should put more weight on the independent ones.
	loaded := a[0] + a[1] + a[2]
	free := a[3] + a[4] + a[5]
	if free <= loaded {
		t.Fatalf("correlated markets not avoided: loaded %v vs free %v (alloc %v)", loaded, free, a)
	}

	// Dense equivalence.
	in2 := &Inputs{Risk: fm.Dense()}
	in2.Lambda = in.Lambda
	in2.PerReqCost = in.PerReqCost
	in2.FailProb = in.FailProb
	plan2, err := Optimize(Config{Horizon: h, Alpha: 50, AMin: 1, AMax: 1.0001}, in2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-plan2.First()[i]) > 1e-5 {
			t.Fatalf("factor vs dense mismatch: %v vs %v", a, plan2.First())
		}
	}
}

// TestValidateRiskRepresentations: Validate returns an error — it does not
// panic — for a missing risk, a non-square dense matrix, and a dense, CSR,
// factor-model or compact risk whose order differs from the market count. A
// well-sized factor model solves, and ADMM refuses it (TestValidationErrors
// checks the message).
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
		"csr":              linalg.NewCSRFromDense(dense3, 0),
		"factor":           &linalg.FactorModel{D: linalg.Vector{1, 1, 1}},
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
	in := inputs(&linalg.FactorModel{D: linalg.Vector{1, 1}})
	if _, err := Optimize(Config{Horizon: 1}, in); err != nil {
		t.Fatalf("factor-model solve failed: %v", err)
	}
	if _, err := Optimize(Config{Horizon: 1, Solver: SolverADMM}, in); err == nil {
		t.Fatal("ADMM without a dense Risk should fail")
	}
}
