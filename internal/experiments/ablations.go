package experiments

import (
	"fmt"
	"io"

	"repro/internal/autoscale"
	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the ablation studies DESIGN.md calls out (design choices
// not directly plotted in the paper but load-bearing for its results) and
// the §7 Discussion experiments.

// ChurnAblationResult sweeps the churn-penalty weight κ under hourly
// billing: without it the receding-horizon controller reshuffles markets
// every tick and pays for abandoned instance-hours.
type ChurnAblationResult struct {
	Kappas   []float64
	Costs    []float64 // rental + penalty
	Launches []int
}

// AblationChurn runs the sweep on the Fig. 6(b)-style setting.
func AblationChurn(w io.Writer, opt Options) ChurnAblationResult {
	days, trainDays, perHour := 7, 7, 4
	if opt.Quick {
		days, trainDays = 3, 5
	}
	wcfg := trace.WikipediaLike(opt.RunSeed())
	wcfg.Days = days + trainDays
	wcfg.SamplesPerHour = perHour
	full := wcfg.Generate()
	trainN := trainDays * 24 * perHour
	wl := full.Slice(trainN, full.Len())
	cat := market.CatalogConfig{Seed: opt.RunSeed(), NumTypes: 12,
		Hours: days * 24, SamplesPerHour: perHour}.Generate()

	res := ChurnAblationResult{Kappas: []float64{0, 0.25, 1.0, 4.0}}
	for _, kappa := range res.Kappas {
		wlPred := predict.NewSplinePredictor(predict.SplineConfig{
			StepHrs: 1.0 / float64(perHour), ARLag1: true, CIProb: 0.99}, 4)
		predict.Pretrain(wlPred, full, trainN)
		r := runSpotWeb(opt, sim.Config{}, portfolio.Config{Horizon: 4, ChurnKappa: kappa}, cat, wl,
			wlPred, portfolio.MeanRevertSource{Cat: cat})
		res.Costs = append(res.Costs, CostWithPenalty(r, 0.02))
		res.Launches = append(res.Launches, r.Launches)
	}
	fmt.Fprintf(w, "Ablation: churn penalty under hourly billing (15-min decisions)\n")
	fmt.Fprintf(w, "%-8s %12s %10s\n", "kappa", "cost", "launches")
	for i, k := range res.Kappas {
		fmt.Fprintf(w, "%-8.2f %12.2f %10d\n", k, res.Costs[i], res.Launches[i])
	}
	return res
}

// PaddingAblationResult sweeps the CI level of the over-provisioning
// predictor: no padding is cheap but violates SLOs; 99% padding trades a
// little rent for near-zero violations.
type PaddingAblationResult struct {
	Levels       []float64 // 0 = no padding
	Costs        []float64
	ViolationPct []float64
}

// AblationPadding runs the sweep.
func AblationPadding(w io.Writer, opt Options) PaddingAblationResult {
	days, trainDays := 7, 7
	if opt.Quick {
		days, trainDays = 4, 5
	}
	// The spiky VoD workload makes the padding difference visible.
	wcfg := trace.VoDLike(opt.RunSeed())
	wcfg.Days = days + trainDays
	full := wcfg.Generate()
	trainN := trainDays * 24
	wl := full.Slice(trainN, full.Len())
	cat := market.CatalogConfig{Seed: opt.RunSeed(), NumTypes: 9, Hours: days * 24}.Generate()

	res := PaddingAblationResult{Levels: []float64{0, 0.90, 0.99}}
	for _, ci := range res.Levels {
		wlPred := predict.NewSplinePredictor(predict.SplineConfig{
			ARLag1: true, CIProb: ci}, 4)
		predict.Pretrain(wlPred, full, trainN)
		r := runSpotWeb(opt, sim.Config{}, portfolio.Config{Horizon: 4, ChurnKappa: 1.0}, cat, wl,
			wlPred, portfolio.MeanRevertSource{Cat: cat})
		res.Costs = append(res.Costs, CostWithPenalty(r, 0.02))
		res.ViolationPct = append(res.ViolationPct, r.ViolationPct)
	}
	fmt.Fprintf(w, "Ablation: CI over-provisioning level (VoD workload)\n")
	fmt.Fprintf(w, "%-8s %12s %14s\n", "CI", "cost", "violations %%")
	for i, ci := range res.Levels {
		fmt.Fprintf(w, "%-8.2f %12.2f %14.2f\n", ci, res.Costs[i], res.ViolationPct[i])
	}
	return res
}

// LongRequestResult sweeps L, the fraction of long-running requests that
// cannot be migrated within the warning period (Eq. 4's P·A·f·λ·L term).
// The paper's testbed uses L = 0 (sub-second MediaWiki requests); for
// applications with long sessions the term penalizes failure-prone markets
// directly, so rising L must push the portfolio toward stabler markets.
type LongRequestResult struct {
	Ls []float64
	// MeanFailProb is the allocation-weighted failure probability of the
	// chosen portfolio.
	MeanFailProb []float64
	// Cost is the optimizer's objective (comparable across L).
	Cost []float64
}

// AblationLongRequests runs the sweep on a constructed two-tier market: the
// cheap markets are failure-prone (20% per interval), the dear ones stable
// (1%) — the regime where Eq. 4's failure term has to bite.
func AblationLongRequests(w io.Writer, opt Options) LongRequestResult {
	const n = 6
	costs := make([]float64, n)
	fails := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			costs[i] = 0.0010 + 0.0001*float64(i) // cheap, risky
			fails[i] = 0.20
		} else {
			costs[i] = 0.0013 + 0.0001*float64(i-n/2) // ~25% dearer, stable
			fails[i] = 0.01
		}
	}
	risk := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		risk.Set(i, i, fails[i]*fails[i]+1e-4)
	}

	res := LongRequestResult{Ls: []float64{0, 0.05, 0.25, 1.0}}
	for _, l := range res.Ls {
		cfg := portfolio.Config{Horizon: 1, LongRequestFrac: l, Alpha: 0.5, DisableWarmStart: opt.ColdStart}
		in := &portfolio.Inputs{
			Lambda:     []float64{3000},
			PerReqCost: [][]float64{costs},
			FailProb:   [][]float64{fails},
			Risk:       risk,
		}
		plan, err := portfolio.Optimize(cfg, in)
		if err != nil {
			panic(err)
		}
		a := plan.First()
		var wf, tot float64
		for i, x := range a {
			wf += x * fails[i]
			tot += x
		}
		if tot > 0 {
			wf /= tot
		}
		res.MeanFailProb = append(res.MeanFailProb, wf)
		res.Cost = append(res.Cost, plan.Objective)
	}
	fmt.Fprintf(w, "Ablation: long-running request fraction L (Eq. 4 failure term)\n")
	fmt.Fprintf(w, "%-8s %18s %12s\n", "L", "mean fail prob", "objective")
	for i, l := range res.Ls {
		fmt.Fprintf(w, "%-8.2f %18.4f %12.2f\n", l, res.MeanFailProb[i], res.Cost[i])
	}
	return res
}

// StartupDelayResult is the §7 "when to use longer look-ahead" experiment:
// when instance start-up exceeds the decision interval, longer horizons pay
// off because capacity ordered now arrives intervals later.
type StartupDelayResult struct {
	Horizons     []int
	Costs        []float64
	ViolationPct []float64
}

// DiscussionStartupDelay runs SpotWeb at several horizons with a VM
// start-up time exceeding the 15-minute decision interval.
func DiscussionStartupDelay(w io.Writer, opt Options) StartupDelayResult {
	days, trainDays, perHour := 7, 7, 4
	if opt.Quick {
		days, trainDays = 3, 5
	}
	wcfg := trace.WikipediaLike(opt.RunSeed())
	wcfg.Days = days + trainDays
	wcfg.SamplesPerHour = perHour
	full := wcfg.Generate()
	trainN := trainDays * 24 * perHour
	wl := full.Slice(trainN, full.Len())
	cat := market.CatalogConfig{Seed: opt.RunSeed(), NumTypes: 9,
		Hours: days * 24, SamplesPerHour: perHour}.Generate()

	res := StartupDelayResult{Horizons: []int{1, 2, 4, 8}}
	for _, h := range res.Horizons {
		wlPred := predict.NewSplinePredictor(predict.SplineConfig{
			StepHrs: 1.0 / float64(perHour), ARLag1: true, CIProb: 0.99}, h)
		predict.Pretrain(wlPred, full, trainN)
		// 25-minute VM start-up > 15-minute decisions (§7's "start-up time
		// longer than the period between two predictions").
		r := runSpotWeb(opt, sim.Config{StartDelaySec: 1500, WarmupSec: 120},
			portfolio.Config{Horizon: h, ChurnKappa: 1.0}, cat, wl,
			wlPred, portfolio.MeanRevertSource{Cat: cat})
		res.Costs = append(res.Costs, CostWithPenalty(r, 0.02))
		res.ViolationPct = append(res.ViolationPct, r.ViolationPct)
	}
	fmt.Fprintf(w, "§7: look-ahead with slow instance start-up (25 min boot, 15 min decisions)\n")
	fmt.Fprintf(w, "%-8s %12s %14s\n", "H", "cost", "violations %%")
	for i, h := range res.Horizons {
		fmt.Fprintf(w, "%-8d %12.2f %14.2f\n", h, res.Costs[i], res.ViolationPct[i])
	}
	return res
}

// GoogleCloudResult is the §7 other-providers experiment: fixed preemptible
// prices, 5–15% preemption probability, forced termination at 24 h.
type GoogleCloudResult struct {
	SpotWebCost, OnDemandCost float64
	SavingsPct                float64
	ViolationPct              float64
	Revocations               int
}

// DiscussionGoogleCloud runs SpotWeb under Google-preemptible semantics.
func DiscussionGoogleCloud(w io.Writer, opt Options) GoogleCloudResult {
	days, trainDays := 7, 7
	if opt.Quick {
		days, trainDays = 4, 5
	}
	wcfg := trace.WikipediaLike(opt.RunSeed())
	wcfg.Days = days + trainDays
	full := wcfg.Generate()
	trainN := trainDays * 24
	wl := full.Slice(trainN, full.Len())
	cat := market.GoogleLikeCatalog(opt.RunSeed(), 10, days*24, 1)

	preemptible := sim.Config{MaxLifetimeHrs: 24}
	wlPred := predict.NewSplinePredictor(predict.SplineConfig{ARLag1: true, CIProb: 0.99}, 4)
	predict.Pretrain(wlPred, full, trainN)
	sw := runSpotWeb(opt, preemptible, portfolio.Config{Horizon: 4, ChurnKappa: 1.0}, cat, wl,
		wlPred, portfolio.ReactiveSource{Cat: cat}) // prices are constant
	odPol, err := autoscale.NewOnDemand(cat, 1.15, &predict.Reactive{})
	if err != nil {
		panic(err)
	}
	od := mustRun(opt, preemptible, cat, wl, odPol, nil)

	res := GoogleCloudResult{
		SpotWebCost:  CostWithPenalty(sw, 0.02),
		OnDemandCost: CostWithPenalty(od, 0.02),
		ViolationPct: sw.ViolationPct,
		Revocations:  sw.Revocations,
	}
	res.SavingsPct = 100 * Savings(res.SpotWebCost, res.OnDemandCost)
	fmt.Fprintf(w, "§7: Google-preemptible regime (fixed prices, 5-15%% preemption, 24 h lifetime)\n")
	fmt.Fprintf(w, "spotweb cost %.2f vs on-demand %.2f: savings %.1f%% (violations %.2f%%, %d revocations)\n",
		res.SpotWebCost, res.OnDemandCost, res.SavingsPct, res.ViolationPct, res.Revocations)
	return res
}
