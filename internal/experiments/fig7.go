package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig7aResult: SpotWeb's savings (vs a purely reactive-predictor SpotWeb) as
// a function of predictor error — §6.5's sensitivity analysis. Savings
// should decay with error but remain positive at sizable errors.
type Fig7aResult struct {
	RelErrors    []float64
	SavingsPct   []float64
	ReactiveCost float64
}

// Fig7a reproduces Fig. 7(a) by injecting controlled noise into oracle
// forecasts (workload and prices) and measuring savings relative to the
// reactive predictor (future = present). Following §6.5, the injected error
// is expressed *relative to the reactive predictor's own error* on this
// workload: at fraction 1.0 SpotWeb's forecasts are as inaccurate as simply
// assuming tomorrow equals today — yet remain unbiased, so savings persist.
func Fig7a(w io.Writer, opt Options) Fig7aResult {
	days := 10
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	if opt.Quick {
		days = 4
		fracs = []float64{0, 0.5, 1.0}
	}
	wcfg := trace.WikipediaLike(opt.RunSeed())
	wcfg.Days = days
	wl := wcfg.Generate()
	cat := market.CatalogConfig{Seed: opt.RunSeed(), NumTypes: 12, Hours: wl.Len()}.Generate()

	// Measure the reactive predictor's one-step error to anchor the sweep.
	reactiveErr := predict.Backtest(&predict.Reactive{}, wl, 24).MAPE
	errs := make([]float64, len(fracs))
	for i, f := range fracs {
		errs[i] = f * reactiveErr
	}

	// Every variant keeps SpotWeb's CI padding (§4.3's over-provisioning is
	// part of the system); only the underlying forecast quality varies.
	rres := runSpotWeb(opt, sim.Config{}, portfolio.Config{Horizon: 4, ChurnKappa: 0.05}, cat, wl,
		predict.NewPadded(&predict.Reactive{}, 0.99, 4), portfolio.ReactiveSource{Cat: cat})
	res := Fig7aResult{ReactiveCost: CostWithPenalty(rres, 0.02)}

	for _, e := range errs {
		r := runSpotWeb(opt, sim.Config{}, portfolio.Config{Horizon: 4, ChurnKappa: 0.05}, cat, wl,
			predict.NewPadded(&predict.NoisyOracle{
				Oracle: predict.Oracle{Values: wl.Values}, RelError: e}, 0.99, 4),
			portfolio.NoisySource{Base: portfolio.OracleSource{Cat: cat}, RelError: e, Seed: uint64(opt.RunSeed())})
		res.RelErrors = append(res.RelErrors, e)
		res.SavingsPct = append(res.SavingsPct, 100*Savings(CostWithPenalty(r, 0.02), res.ReactiveCost))
	}
	fmt.Fprintf(w, "Fig 7(a): savings vs predictor error (relative to reactive prediction)\n")
	for i, e := range res.RelErrors {
		fmt.Fprintf(w, "rel error %4.0f%%: savings %6.1f%%\n", 100*e, res.SavingsPct[i])
	}
	return res
}

// Fig7bResult: optimizer wall-time distributions per (markets, horizon) —
// §6.6's scalability study. The paper reports sub-second to ≈5 s and
// sub-linear growth in the number of markets.
type Fig7bResult struct {
	// Times[mi][hi] summarizes the solve times, in milliseconds, at the mi-th
	// market count and the hi-th horizon.
	Times [][]stats.FiveNum
}

// Fig7b times the MPO solve across market-count × horizon sweeps on
// synthetic inputs mirroring the Wikipedia experiment's scale.
func Fig7b(w io.Writer, opt Options) Fig7bResult {
	marketCounts := []int{9, 18, 36, 72, 144, 288}
	horizons := []int{2, 4, 6, 10}
	reps := 9
	if opt.Quick {
		marketCounts = []int{9, 36, 144}
		horizons = []int{2, 6}
		reps = 4
	}
	rng := rand.New(rand.NewSource(opt.RunSeed()))
	var res Fig7bResult
	for _, n := range marketCounts {
		var row []stats.FiveNum
		// Dense covariance with group structure, as the real catalog yields.
		risk := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := 0.0
				if i == j {
					v = 0.003 + 0.01*rng.Float64()
				} else if i%6 == j%6 {
					v = 0.002 * rng.Float64()
				}
				risk.Set(i, j, v)
				risk.Set(j, i, v)
			}
		}
		for _, h := range horizons {
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
			cfg := portfolio.Config{Horizon: h, ChurnKappa: 0.05, DisableWarmStart: opt.ColdStart}
			var ms []float64
			for r := 0; r < reps; r++ {
				start := time.Now()
				if _, err := portfolio.Optimize(cfg, in); err != nil {
					panic(err)
				}
				ms = append(ms, float64(time.Since(start).Microseconds())/1000.0)
			}
			row = append(row, stats.Summarize(ms))
		}
		res.Times = append(res.Times, row)
	}
	fmt.Fprintf(w, "Fig 7(b): optimizer solve time (ms) per markets × horizon\n")
	fmt.Fprintf(w, "%-9s", "markets")
	for _, h := range horizons {
		fmt.Fprintf(w, " %22s", fmt.Sprintf("H=%d med[q1,q3]", h))
	}
	fmt.Fprintln(w)
	for i, n := range marketCounts {
		fmt.Fprintf(w, "%-9d", n)
		for _, f := range res.Times[i] {
			fmt.Fprintf(w, " %9.2f[%5.2f,%6.2f]", f.Median, f.Q1, f.Q3)
		}
		fmt.Fprintln(w)
	}
	return res
}
