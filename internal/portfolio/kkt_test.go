package portfolio

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// kktInputs builds a random but well-conditioned MPO input set of n markets
// over horizon h: SPD risk, per-period costs/failure probabilities with mild
// drift, and a previous allocation so the churn term is fully exercised.
func kktInputs(rng *rand.Rand, n, h int) *Inputs {
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	for i := range risk.Data {
		risk.Data[i] *= 0.01 / float64(n)
	}
	risk.AddDiag(0.005)
	in := &Inputs{Risk: risk}
	base := make([]float64, n)
	fail := make([]float64, n)
	for i := range base {
		base[i] = 0.002 + 0.008*rng.Float64()
		fail[i] = 0.1 * rng.Float64()
	}
	for τ := 0; τ < h; τ++ {
		costs := make([]float64, n)
		fails := make([]float64, n)
		for i := range costs {
			costs[i] = base[i] * (1 + 0.05*math.Sin(float64(τ+i)))
			fails[i] = fail[i]
		}
		in.Lambda = append(in.Lambda, 100+5*float64(τ))
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	prev := linalg.NewVector(n)
	for i := range prev {
		prev[i] = rng.Float64() * 1.2 / float64(n)
	}
	in.PrevAlloc = prev
	return in
}

func kktCfg(h int) Config {
	return Config{
		Horizon: h, ChurnKappa: 0.5, Solver: SolverADMM,
		Alpha: 5, AMin: 1, AMax: 1.5, AMaxPerMarket: 1,
	}
}

// Guardrail: at n=1000, h=24 the structured builder must produce a valid
// problem without allocating anything near the dense (nh)² Hessian or the
// (nh+h)×nh constraint matrix (which would be ~4.6 GB and ~4.6 GB); the whole
// build must stay in the tens of megabytes.
func TestKKTSparseBuildAvoidsDenseAllocation(t *testing.T) {
	n, h := 1000, 24
	if raceEnabled {
		n = 250 // dense P would still be 288 MB; the bound below stays sharp
	}
	rng := rand.New(rand.NewSource(99))
	in := kktInputs(rng, n, h)
	cfg := kktCfg(h).WithDefaults()
	kappa := cfg.churnWeight(in, n)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prob := cfg.buildADMMSparse(in, n, kappa)
	runtime.ReadMemStats(&after)

	if err := prob.Validate(); err != nil {
		t.Fatalf("structured problem invalid: %v", err)
	}
	if prob.Block == nil || prob.Block.N != n || prob.Block.H != h {
		t.Fatalf("structure declaration missing or wrong: %+v", prob.Block)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	const limit = 64 << 20
	if allocated > limit {
		t.Fatalf("structured build allocated %d MB, want < %d MB (dense-free)",
			allocated>>20, limit>>20)
	}
	runtime.KeepAlive(prob)
}
