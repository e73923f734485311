// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment id; see DESIGN.md §4 for the index), plus
// micro-benchmarks of the optimizer at the paper's scalability sweep points.
// Run with:
//
//	go test -bench=. -benchmem
package spotweb_test

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"syscall"
	"testing"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/trace"
)

var benchOpt = experiments.Options{Quick: true, Seed: 42}

// BenchmarkTable1Matrix regenerates Table 1 (feature comparison).
func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

// BenchmarkFig3Traces regenerates the Fig. 3 workload traces.
func BenchmarkFig3Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3Traces(io.Discard, benchOpt)
	}
}

// BenchmarkFig4aLoadBalancer runs the §6.1 testbed experiment (real HTTP
// servers, compressed time). This is a wall-clock-bound experiment.
func BenchmarkFig4aLoadBalancer(b *testing.B) {
	if testing.Short() {
		b.Skip("real-time testbed")
	}
	for i := 0; i < b.N; i++ {
		experiments.Fig4a(io.Discard, benchOpt)
	}
}

// BenchmarkFig4PredictorErrors regenerates the Fig. 4(c)/(d) prediction
// error distributions.
func BenchmarkFig4PredictorErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4cd(io.Discard, benchOpt)
	}
}

// BenchmarkFig5PriceAwareness regenerates Fig. 5 (price series + allocation
// series under the constant portfolio and under MPO).
func BenchmarkFig5PriceAwareness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard, benchOpt)
	}
}

// BenchmarkFig6aConstantPortfolio regenerates Fig. 6(a) (SpotWeb vs constant
// portfolio with autoscaler).
func BenchmarkFig6aConstantPortfolio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6a(io.Discard, benchOpt)
	}
}

// BenchmarkFig6bExoSphereLoop regenerates Fig. 6(b) (SpotWeb vs
// ExoSphere-in-a-loop across market counts and horizons).
func BenchmarkFig6bExoSphereLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6b(io.Discard, benchOpt, "wiki")
	}
}

// BenchmarkTV4Workload regenerates the §6.4 TV4 (VoD) variant of Fig. 6(b).
func BenchmarkTV4Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6b(io.Discard, benchOpt, "vod")
	}
}

// BenchmarkFig7aPredictionAccuracy regenerates Fig. 7(a) (savings vs
// predictor accuracy).
func BenchmarkFig7aPredictionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7a(io.Discard, benchOpt)
	}
}

// BenchmarkFig7bOptimizerScalability regenerates Fig. 7(b) (optimizer
// wall-time sweep).
func BenchmarkFig7bOptimizerScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7b(io.Discard, benchOpt)
	}
}

// mpoInputs builds synthetic optimizer inputs at a given scale.
func mpoInputs(rng *rand.Rand, n, h int) (*portfolio.Inputs, portfolio.Config) {
	risk := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		risk.Set(i, i, 0.003+0.01*rng.Float64())
	}
	in := &portfolio.Inputs{Risk: risk}
	for τ := 0; τ < h; τ++ {
		costs := make([]float64, n)
		fails := make([]float64, n)
		for i := 0; i < n; i++ {
			costs[i] = 0.0005 + 0.01*rng.Float64()
			fails[i] = 0.15 * rng.Float64()
		}
		in.Lambda = append(in.Lambda, 3000)
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	return in, portfolio.Config{Horizon: h, ChurnKappa: 0.5}
}

// BenchmarkMPOSolve benchmarks one optimizer solve at the Fig. 7(b) sweep
// points (markets × horizon), FISTA backend.
func BenchmarkMPOSolve(b *testing.B) {
	for _, n := range []int{9, 36, 144} {
		for _, h := range []int{2, 6, 10} {
			b.Run(benchName(n, h), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				in, cfg := mpoInputs(rng, n, h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := portfolio.Optimize(cfg, in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMPOSolveADMM is the ablation counterpart: the general dense-KKT
// ADMM backend on the same programs (DESIGN.md calls out the two-solver
// design choice).
func BenchmarkMPOSolveADMM(b *testing.B) {
	for _, n := range []int{9, 36} {
		b.Run(benchName(n, 4), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in, cfg := mpoInputs(rng, n, 4)
			cfg.Solver = portfolio.SolverADMM
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := portfolio.Optimize(cfg, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n, h int) string {
	return "markets=" + itoa(n) + "/H=" + itoa(h)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkMetricsObserve measures the observability hot paths the request
// loop pays per served request: counter increment (serial and contended),
// histogram observation, SLO-tracker observation — and the disabled path,
// where a nil registry hands out nil handles whose methods must cost one
// branch (the overhead contract in DESIGN.md).
func BenchmarkMetricsObserve(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := metrics.NewRegistry().Counter("bench_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-inc-parallel", func(b *testing.B) {
		c := metrics.NewRegistry().Counter("bench_total", "")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := metrics.NewRegistry().Histogram("bench_seconds", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.0042)
		}
	})
	b.Run("slo-observe", func(b *testing.B) {
		s := metrics.NewSLOTracker(0, 0, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Observe(4200 * 1000) // 4.2ms in ns (time.Duration)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var reg *metrics.Registry // nil registry: the "metrics off" mode
		c := reg.Counter("bench_total", "")
		h := reg.Histogram("bench_seconds", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(0.0042)
		}
	})
}

// BenchmarkSplinePredictorStep measures one Observe+Predict cycle of the
// workload predictor at steady state.
func BenchmarkSplinePredictorStep(b *testing.B) {
	cfg := trace.WikipediaLike(1)
	s := cfg.Generate()
	p := predict.NewSplinePredictor(predict.SplineConfig{ARLag1: true, CIProb: 0.99}, 4)
	for _, v := range s.Values {
		p.Observe(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(4)
		p.Observe(s.Values[i%s.Len()])
	}
}

// BenchmarkCatalogGeneration measures building a 100-type market catalog
// with two months of price/failure dynamics.
func BenchmarkCatalogGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		market.CatalogConfig{Seed: int64(i), NumTypes: 100, Hours: 24 * 60}.Generate()
	}
}

// riskBenchCatalogs are the two shapes the covariance benchmark runs on, and
// the plan_single and plan_fed legs of BenchmarkRiskMatVec: Fig. 7b's largest
// catalog (144 types with on-demand twins, n = 288) and one federation-shard
// sized catalog of transient markets only (n = 50).
var riskBenchCatalogs = []struct {
	name string
	cfg  market.CatalogConfig
}{
	{"n288-half-ondemand", market.CatalogConfig{Seed: 1, NumTypes: 144, IncludeOnDemand: true, Hours: 24 * 30}},
	{"n50", market.CatalogConfig{Seed: 1, NumTypes: 50, Hours: 24 * 30}},
}

// BenchmarkCovarianceMatrix measures the risk-matrix estimation the planner
// performs each interval over a two-week hourly window.
func BenchmarkCovarianceMatrix(b *testing.B) {
	for _, c := range riskBenchCatalogs {
		b.Run(c.name, func(b *testing.B) {
			cat := c.cfg.Generate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cat.CovarianceMatrix(24*20, cat.TwoWeekWindow())
			}
		})
	}
}

// BenchmarkFederatedStep times federation.Planner.Step in the shape of the
// ledger's plan_fed: 2,000 markets over 40 shards (4 regions × 10 AZs × 50
// transient types), H = 4, a shard pool as wide as the CPU count, the
// workload predictor warmed on two weeks of a Wikipedia-like trace, and every
// round over the full 14-day covariance window. Beside ns/op and the
// allocations it reports cpu-ms/op, the process CPU per Step from rusage —
// the caller's and the pool workers' together — so a coordinator change
// reads a number with no harness around it.
func BenchmarkFederatedStep(b *testing.B) {
	const warm, hours = 24 * 14, 24 * 56
	fed, err := federation.Build(federation.Config{
		Regions: 4, AZsPerRegion: 10, TypesPerAZ: 50, Hours: hours, Seed: 2019,
	})
	if err != nil {
		b.Fatal(err)
	}
	wcfg := trace.WikipediaLike(7)
	wcfg.Days = hours / 24
	wl := wcfg.Generate()
	cfg := portfolio.Config{Horizon: 4}.WithDefaults()
	newPlanner := func() *federation.Planner {
		wp := predict.NewSplinePredictor(predict.SplineConfig{
			StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
		}, cfg.Horizon)
		for _, v := range wl.Values[:warm] {
			wp.Observe(v)
		}
		return federation.NewPlanner(fed, federation.PlannerConfig{Portfolio: cfg, Parallelism: runtime.NumCPU()},
			wp, portfolio.MeanRevertSource{Cat: fed.Merged})
	}
	pl, t := newPlanner(), warm
	var cpu float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t == hours-cfg.Horizon-1 { // out of trace: a fresh planner, untimed
			b.StopTimer()
			pl, t = newPlanner(), warm
			b.StartTimer()
		}
		c0 := processCPUSeconds()
		if _, err := pl.Step(t, wl.Values[t]); err != nil {
			b.Fatal(err)
		}
		cpu += processCPUSeconds() - c0
		t++
	}
	b.ReportMetric(1e3*cpu/float64(b.N), "cpu-ms/op")
}

// processCPUSeconds returns the process's user+system CPU time so far.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// BenchmarkRiskMatVec measures the solver's per-iteration risk kernel — M
// applied to every period of an iterate in one stacked call — densely and
// through the compact operator solveFISTA derives (linalg.CompactRisk), at the
// shapes the ledger plans: plan_single's n = 288 at H = 6 (and at H = 1, the
// SPO/ExoSphere program), a plan_fed shard at H = 4 and a what-if cell (three
// types with on-demand twins, n = 6) at H = 4. At n = 50 nothing is isolated,
// so "compact" is the matrix itself and the two must read the same.
func BenchmarkRiskMatVec(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  market.CatalogConfig
		h    int
	}{
		{riskBenchCatalogs[0].name, riskBenchCatalogs[0].cfg, 6},
		{riskBenchCatalogs[0].name, riskBenchCatalogs[0].cfg, 1},
		{riskBenchCatalogs[1].name, riskBenchCatalogs[1].cfg, 4},
		{"n6-half-ondemand", market.CatalogConfig{Seed: 1, NumTypes: 3, IncludeOnDemand: true, Hours: 24 * 30}, 4},
	} {
		cat := c.cfg.Generate()
		n := cat.Len()
		m := cat.CovarianceMatrix(24*20, cat.TwoWeekWindow())
		compact, _ := linalg.CompactRisk(m)
		x, dst := linalg.NewVector(c.h*n), linalg.NewVector(c.h*n)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		for _, op := range []struct {
			name string
			m    linalg.MatVec
		}{{"dense", m}, {"compact", compact}} {
			b.Run(c.name+"/"+op.name+"/h="+strconv.Itoa(c.h), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op.m.MulVecStacked(x, dst)
				}
			})
		}
	}
}

// BenchmarkBoxBandProject measures one per-period projection of a FISTA
// iterate: every fourth market carries allocation, the rest sit just below
// zero. "lowering" starts above the budget band (μ > 0), "raising" below it
// (μ < 0); both project the same input every time, so the set's warm guess is
// the previous call's exact answer. "drift" cycles through 64 iterates that
// move a little each step, as consecutive FISTA iterates do: the guess is
// close, not exact. n = 6 is a what-if sweep block, 50 a federation shard,
// 288 Fig. 7b's largest catalog.
func BenchmarkBoxBandProject(b *testing.B) {
	const driftSteps = 64
	for _, n := range []int{6, 50, 288} {
		lo, hi := linalg.NewVector(n), linalg.NewVector(n)
		hi.Fill(1)
		set := solver.NewBoxBand(lo, hi, 1, 1.5)
		for _, c := range []struct {
			name  string
			mass  float64 // Σ of the carrying coordinates
			drift float64 // amplitude of the per-coordinate movement over the cycle
		}{{"lowering", 2.5, 0}, {"raising", 0.5, 0}, {"drift", 2.5, 0.02}} {
			src := linalg.NewVector(n)
			carriers := (n + 3) / 4
			for i := range src {
				src[i] = -0.002 * float64(1+i%7)
				if i%4 == 0 {
					src[i] = c.mass / float64(carriers) * (0.5 + float64(i%3)/2)
				}
			}
			steps := 1
			if c.drift > 0 {
				steps = driftSteps
			}
			srcs := make([]linalg.Vector, steps)
			for k := range srcs {
				srcs[k] = src.Clone()
				for i := range src {
					srcs[k][i] += c.drift * math.Sin(2*math.Pi*float64(k)/driftSteps+float64(i))
				}
			}
			y := linalg.NewVector(n)
			b.Run(c.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(y, srcs[i%len(srcs)])
					set.Project(y)
				}
			})
		}
	}
}

// BenchmarkBetaQuantile measures the risk estimator's per-market overlay
// kernel: the upper credible bound of a Beta posterior, a bisection on the
// incomplete beta function. "cold" is a standard-catalog prior with no
// evidence (s = 8, p0 = 0.02), "warm" a market after a few dozen exposed
// intervals and two revocations, "thin" the 1e-5 clamp against heavy exposure.
// A "near" leg starts from the bound the estimator published one interval
// earlier, before its evidence decayed by one 1-h step at the default 24-h
// half-life (p0, k and x are the evidence behind a and b; the cold prior has
// none to decay, so its guess is the answer).
func BenchmarkBetaQuantile(b *testing.B) {
	decay := math.Exp2(-1.0 / 24)
	for _, c := range []struct {
		name        string
		p, p0, k, x float64
	}{{"cold", 0.9, 0.02, 0, 0}, {"warm", 0.9, 0.02, 2, 30}, {"thin", 0.85, 1e-5, 0, 1992}} {
		qa, qb := 8*c.p0+c.k, 8*(1-c.p0)+c.x-c.k
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats.BetaQuantile(c.p, qa, qb, math.NaN())
			}
		})
		k, x := c.k/decay, c.x/decay
		guess := stats.BetaQuantile(c.p, 8*c.p0+k, 8*(1-c.p0)+x-k, math.NaN())
		b.Run(c.name+"/near", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats.BetaQuantile(c.p, qa, qb, guess)
			}
		})
	}
}

// BenchmarkFig4aSimDES regenerates the discrete-event rendition of Fig. 4(a)
// (full paper time scale, request-level simulation).
func BenchmarkFig4aSimDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4aSim(io.Discard, benchOpt)
	}
}
