// Package runner executes chaos scenarios end to end: it compiles a scenario
// into an injector, drives the discrete-event simulator (with the SpotWeb
// planner in the loop) through the fault timeline, re-runs the identical
// configuration fault-free as a baseline, and distills both runs plus the
// event journal into a resilience Report. The simulator path is fully
// deterministic: the same (scenario, seed, quick) triple yields a
// byte-identical encoded report.
package runner

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/federation"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/risk"
	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recoveryTargetPct is the SLO-attainment level (percent) a run must regain
// for a below-target episode to close; see chaos.RecoveryFromSeries. 99 is
// the paper's availability target for latency-sensitive services.
const recoveryTargetPct = 99

// defaultRiskConfig is the estimator configuration for adaptive comparison
// runs: a moderate upper credible bound, a half-life spanning the whole
// quick (36-interval) run so the scarce exposure is kept rather than decayed
// away, and mild demand-pool sharing — enough that a condemned market's
// group-mates inherit suspicion, but not so much that one noisy neighbor
// prices a clean market out of the portfolio. The changepoint detector is
// detuned relative to the library default — the synthetic price processes
// mean-revert with occasional genuine excursions, and a false trip that
// wipes the evidence window costs far more here than a late reaction to a
// real shift.
func defaultRiskConfig() risk.Config {
	return risk.Config{
		Quantile:    0.85,
		HalfLifeHrs: 48,
		PoolWeight:  0.3,
		Changepoint: risk.ChangepointConfig{
			Threshold: 24,
			Drift:     2,
			Forget:    0.85,
		},
	}
}

// simWorkload builds the standard chaos workload: low utilization through
// the first third of the run, a linear climb, then sustained high load from
// 60% onward — the shape the built-in scenario timings assume (an early
// storm lands in headroom, late storms land under pressure). Closed-form and
// seedless, so it never perturbs determinism.
func simWorkload(n int, cat *market.Catalog) *trace.Series {
	var meanCap float64
	transients := 0
	for _, m := range cat.Markets {
		if m.Transient {
			meanCap += m.Type.Capacity
			transients++
		}
	}
	if transients > 0 {
		meanCap /= float64(transients)
	}
	// High load sized for a ~9-server fleet at healthy utilization; low load
	// is a third of that.
	high := 9 * meanCap * 0.8
	low := high / 3
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i) / float64(n-1)
		switch {
		case x < 1.0/3:
			vals[i] = low
		case x < 0.6:
			vals[i] = low + (high-low)*(x-1.0/3)/(0.6-1.0/3)
		default:
			vals[i] = high
		}
	}
	return &trace.Series{Name: "chaos-ramp", StepHrs: cat.StepHrs, Values: vals}
}

// spikedCatalog returns a copy of the catalog with price-spike faults applied
// to the price series — a pre-transform, so the planner sees the spike (and
// re-plans around it) and billing charges it, rather than a hidden surcharge.
// Without a spike it returns cat itself, so the fault and fault-free legs
// declare the same catalog and can share one decision trace (newLeg).
func spikedCatalog(cat *market.Catalog, in *chaos.Injector) *market.Catalog {
	if !in.SpikesPrices() {
		return cat
	}
	out := &market.Catalog{StepHrs: cat.StepHrs, Intervals: cat.Intervals}
	n := cat.Intervals
	for i, m := range cat.Markets {
		mm := *m
		vals := make([]float64, len(m.Price.Values))
		copy(vals, m.Price.Values)
		for t := range vals {
			// Interval t maps to the same normalized time the simulator
			// uses: the run starts at interval 1.
			x := float64(t-1) / float64(n-1)
			if f := in.PriceFactor(x, i); f != 1 {
				vals[t] *= f
			}
		}
		price := *m.Price
		price.Values = vals
		mm.Price = &price
		out.Markets = append(out.Markets, &mm)
	}
	return out
}

// applyLie derives the DECLARED catalog (what the planner and the
// estimator's prior see) from the freshly generated TRUTH catalog, then
// rewrites the truth's targeted failure series per the lie. The declared
// series are captured before the truth overrides, so a stale declaration
// freezes the pre-drift interval-0 values.
func applyLie(truth *market.Catalog, lie *chaos.CatalogLie) *market.Catalog {
	declared := &market.Catalog{StepHrs: truth.StepHrs, Intervals: truth.Intervals}
	for _, m := range truth.Markets {
		mm := *m
		if m.Transient {
			v := lie.DeclaredFailProb
			if lie.Stale {
				v = m.FailProb.Values[0]
			}
			fp := *m.FailProb
			fp.Values = make([]float64, len(m.FailProb.Values))
			for i := range fp.Values {
				fp.Values[i] = v
			}
			mm.FailProb = &fp
		}
		declared.Markets = append(declared.Markets, &mm)
	}
	target := map[int]bool{}
	for _, g := range lie.Groups {
		target[g] = true
	}
	for _, m := range truth.Markets {
		if !m.Transient || (len(lie.Groups) > 0 && !target[m.Group]) {
			continue
		}
		fp := *m.FailProb
		fp.Values = append([]float64(nil), m.FailProb.Values...)
		for i := range fp.Values {
			switch {
			case lie.ActualFailProb > 0:
				fp.Values[i] = lie.ActualFailProb
			case lie.ActualScale > 0:
				fp.Values[i] *= lie.ActualScale
				if fp.Values[i] > 0.5 {
					fp.Values[i] = 0.5
				}
			}
		}
		m.FailProb = &fp
	}
	return declared
}

// BasePortfolioConfig is the planner configuration scenario runs start from:
// library defaults with any single market capped at 40% of the allocation, so
// the portfolio spreads over several markets — a Count=1 storm then removes a
// slice of capacity, not the whole fleet.
func BasePortfolioConfig() portfolio.Config {
	return portfolio.Config{AMaxPerMarket: 0.4}.WithDefaults()
}

// ScenarioHours is the run length RunSim uses for the quick flag: 96
// simulated intervals normally, 36 for CI-sized runs.
func ScenarioHours(quick bool) int {
	if quick {
		return 36
	}
	return 96
}

// StandardCatalog generates the catalog every scenario without a catalog lie
// or a region outage simulates against: 3 instance types plus on-demand
// across 2 demand pools. Exported so the sweep engine can build it once per
// (seed, hours) and share the immutable result across scenarios.
func StandardCatalog(seed int64, hours int) *market.Catalog {
	return market.CatalogConfig{
		Seed:            seed,
		NumTypes:        3,
		IncludeOnDemand: true,
		Hours:           hours,
		SamplesPerHour:  1,
		Groups:          2,
		BaseFailProb:    0.02,
	}.Generate()
}

// hasFault reports whether the scenario carries a fault of the given kind; a
// region_outage is what NewEnv answers with a federation.
func hasFault(sc *chaos.Scenario, kind chaos.FaultKind) bool {
	for _, f := range sc.Faults {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// CheckScenario rejects a region_outage with a price_spike: the federation's
// catalogs are never price-transformed (see NewEnv), so the spike would be
// dropped while the report names the scenario as run.
func CheckScenario(sc *chaos.Scenario) error {
	if hasFault(sc, chaos.KindRegionOutage) && hasFault(sc, chaos.KindPriceSpike) {
		return fmt.Errorf("runner: scenario %q combines %s with %s: a federated run cannot apply the price spike",
			sc.Name, chaos.KindRegionOutage, chaos.KindPriceSpike)
	}
	return nil
}

// Env is the precompiled input set of a scenario run. What distinguishes a
// plain fault scenario from a catalog-lie or a region-outage one is data
// here — which catalogs the planner is shown, whether a federation plans,
// whether an adaptive leg is scored — so Run and newLeg have one path.
// Everything but Plans is read-only during simulation, and Plans is
// synchronised: one env can serve any number of concurrent Run calls, and
// Cat and Plans can be shared between the envs of different scenarios at the
// same (seed, hours).
type Env struct {
	Scenario *chaos.Scenario
	Seed     int64
	Hours    int
	// SubSteps overrides the within-interval simulation resolution for every
	// leg run from this env (0 = the simulator default, 60). Reports are only
	// comparable across runs with equal SubSteps.
	SubSteps int

	// Cat is the fault-free truth catalog (the baseline leg samples
	// revocations from it and bills on it) and Spiked its price-spike view,
	// which the fault legs use: a pre-transform, so the planner sees the
	// spike and billing charges it.
	Cat, Spiked *market.Catalog
	// Declared and DeclaredSpiked are what the planner's forecasts and
	// covariance and an estimator's prior read in place of Cat and Spiked.
	// They are the same catalogs unless the scenario carries a CatalogLie.
	Declared, DeclaredSpiked *market.Catalog
	// Fed, when set, is the federation whose merged view Cat is.
	Fed      *federation.Federation
	Injector *chaos.Injector
	Workload *trace.Series

	// Portfolio is the planner configuration before the run's options.
	Portfolio portfolio.Config
	// NewPlanner builds one leg's planner over the declared catalog; est,
	// when non-nil, becomes its risk overlay.
	NewPlanner func(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper
	// Policy names the scored planner. AdaptivePolicy, when non-empty, adds
	// the comparison leg: the same faults, workload and seed with the risk
	// estimator (defaultRiskConfig) watching, scored in Report.Adaptive. The
	// primary and baseline legs are then by definition the planner that
	// trusts the declared catalog, and stay estimator-free under -risk.
	Policy, AdaptivePolicy string
	// NoAnchor clears the run's AnchorMin: the sharded federation planner's
	// per-shard inputs never mark on-demand markets, so the floor is dropped
	// rather than half-applied. (The sentinel loop is purely a simulator
	// feature and works unchanged.)
	NoAnchor bool
	// SharedBaseline marks the fault-free leg as independent of the scenario
	// — a function of (seed, hours, options) only — so Run may be handed the
	// one a previous scenario of the same group computed.
	SharedBaseline bool
	// Plans holds the traces estimator-free legs replay and the quantiles
	// estimators share (newLeg): NewEnv gives each env its own, the sweep
	// engine one per seed index.
	Plans *PlanCache
}

// PlanCache shares decision traces between legs whose planner inputs agree.
// An estimator-free planner sees nothing of a leg but Step(t, workload at t),
// so its decisions are fixed by the declared catalog (which also fixes the
// factory: envs sharing a catalog build the same planner over it), its
// configuration and the workload — never by the leg's faults. Legs with an
// estimator plan live but share Quantiles: their estimators see identical
// evidence until a leg's first fault. Safe for concurrent use; the zero value
// is ready.
type PlanCache struct {
	traces    sync.Map // planKey → *planTrace
	Quantiles risk.Quantiles
}

type planKey struct {
	declared *market.Catalog
	cfg      portfolio.Config
	workload string // the workload's values, bit for bit
}

// planTrace is one planner input's decisions: Counts for rounds 0 … n−2, or
// up to the round that failed, whose error err then holds.
type planTrace struct {
	once   sync.Once
	counts [][]int
	err    error
}

func (c *PlanCache) trace(k planKey) *planTrace {
	tr, _ := c.traces.LoadOrStore(k, &planTrace{})
	return tr.(*planTrace)
}

// bitsKey encodes float64 values as a comparable string of their bits.
func bitsKey(vals []float64) string {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// replay is an estimator-free leg's policy: it hands out the shared trace
// (read-only: sim.Run only reads counts), which the first leg to decide
// records by driving a live planner through exactly sim.Run's calls.
type replay struct {
	tr       *planTrace
	label    string
	workload *trace.Series
	build    func() autoscale.Stepper
}

func (r replay) Name() string { return r.label }

func (r replay) Decide(t int, _ float64) ([]int, error) {
	r.tr.once.Do(func() {
		p := r.build()
		for s := 0; s < r.workload.Len()-1; s++ {
			dec, err := p.Step(s, r.workload.At(s))
			if err != nil {
				r.tr.err = err
				return
			}
			r.tr.counts = append(r.tr.counts, dec.Counts)
		}
	})
	if t < len(r.tr.counts) {
		return r.tr.counts[t], nil
	}
	return nil, r.tr.err
}

// StandardEnv and NewStandardEnvWithCatalog are the names bench/ compiles
// against; only a [benchmark] PR may edit it.
type StandardEnv = Env

var NewStandardEnvWithCatalog = NewEnv

// splinePlanner is Env.NewPlanner for a single catalog: the portfolio planner
// with SpotWeb's default predictors.
func splinePlanner(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper {
	p := portfolio.NewPlanner(cfg, declared, splinePredictor(declared, cfg.Horizon), portfolio.MeanRevertSource{Cat: declared})
	if est != nil {
		p.RiskOverlay = est
	}
	return p
}

func splinePredictor(cat *market.Catalog, horizon int) predict.Predictor {
	return predict.NewSplinePredictor(predict.SplineConfig{StepHrs: cat.StepHrs, ARLag1: true, CIProb: 0.99}, horizon)
}

// NewEnv compiles a scenario into a reusable env. standard, when non-nil,
// must be StandardCatalog(seed, hours) (or bit-identical) and is used — not
// mutated — by scenarios that run on the standard catalog; nil generates it.
//
// A CatalogLie scenario runs on a wider catalog of its own — 6 instance
// types over 3 demand pools — so an adaptive planner that learns one pool is
// deadly has enough clean transient capacity (4 markets × 40% cap) to route
// around it without falling back to on-demand prices.
//
// A region_outage scenario runs against a real federation: 4 regions
// round-robined over the synthetic aws/azure providers, one AZ each, 3
// transient types plus on-demand twins per AZ — 24 markets, 4 planner
// shards. The scenario's RegionMap is replaced with the federation's actual
// index map and its copula correlation with the federation's block matrix
// (0.8 intra-AZ, 0.6 intra-region, 0.25 cross-region), and a cross-region
// copula storm is appended at peak load so the outage bleeds into the
// surviving regions. Price-spike faults are not pre-transformed there
// (spikedCatalog would break the pointer sharing between the merged view and
// the shard catalogs), so CheckScenario refuses a region outage that carries
// one.
func NewEnv(sc *chaos.Scenario, seed int64, hours int, standard *market.Catalog) (*Env, error) {
	if err := CheckScenario(sc); err != nil {
		return nil, err
	}
	env := &Env{
		Scenario: sc, Seed: seed, Hours: hours, Plans: &PlanCache{},
		Portfolio: BasePortfolioConfig(), NewPlanner: splinePlanner, Policy: "spotweb",
	}
	compiled := sc
	switch {
	case hasFault(sc, chaos.KindRegionOutage):
		fed, err := federation.Build(federation.Config{
			Providers:       []string{"aws", "azure"},
			Regions:         4,
			AZsPerRegion:    1,
			TypesPerAZ:      3,
			Hours:           hours,
			SamplesPerHour:  1,
			IncludeOnDemand: true,
			Seed:            seed,
		})
		if err != nil {
			return nil, fmt.Errorf("runner: federation: %w", err)
		}
		// Re-anchor the scenario on the federation's real topology. The copy
		// is deep enough: Faults is reallocated before the append, RegionMap
		// and Correlation are replaced wholesale.
		anchored, full := *sc, 1.0
		anchored.RegionMap = fed.RegionMap()
		anchored.Correlation = fed.CorrelationMatrix(0.8, 0.6, 0.25)
		anchored.Faults = append(append([]chaos.FaultSpec(nil), sc.Faults...), chaos.FaultSpec{
			Kind: chaos.KindStorm, Start: 0.7, Prob: 0.25, WarnScale: &full,
		})
		compiled = &anchored
		env.Fed, env.Cat, env.Declared = fed, fed.Merged, fed.Merged
		env.NewPlanner = func(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper {
			p := federation.NewPlanner(fed, federation.PlannerConfig{Portfolio: cfg},
				splinePredictor(declared, cfg.Horizon), portfolio.MeanRevertSource{Cat: declared})
			if est != nil {
				p.RiskOverlay = est
			}
			return p
		}
		env.Policy, env.AdaptivePolicy, env.NoAnchor = "spotweb-fed", "spotweb-fed-adaptive", true
	case sc.CatalogLie != nil:
		env.Cat = market.CatalogConfig{
			Seed:            seed,
			NumTypes:        6,
			IncludeOnDemand: true,
			Hours:           hours,
			SamplesPerHour:  1,
			Groups:          3,
			BaseFailProb:    0.02,
		}.Generate()
		env.Declared = applyLie(env.Cat, sc.CatalogLie)
		env.AdaptivePolicy = "spotweb-adaptive"
	default:
		if standard == nil {
			standard = StandardCatalog(seed, hours)
		}
		env.Cat, env.Declared, env.SharedBaseline = standard, standard, true
	}
	if env.AdaptivePolicy != "" {
		// The failure probability only steers the MPO through the Eq. 4 term
		// P·f·λ·L, so the comparison runs with a nonzero long-request
		// fraction; every leg shares the configuration, keeping it fair. The
		// per-market cap is loosened to 0.5 so that after the estimator
		// condemns the deceitful pool (or a region goes dark), the remaining
		// clean capacity can still cover the allocation floor on spot
		// instead of spilling to on-demand.
		env.Portfolio.LongRequestFrac = 0.3
		env.Portfolio.AMaxPerMarket = 0.5
	}
	in, err := chaos.Compile(compiled, seed, env.Cat.Len())
	if err != nil {
		return nil, err
	}
	env.Injector = in
	env.Workload = simWorkload(hours, env.Cat)
	env.Spiked, env.DeclaredSpiked = env.Cat, env.Declared
	if env.Fed == nil {
		env.Spiked = spikedCatalog(env.Cat, in)
		env.DeclaredSpiked = env.Spiked
		if env.Declared != env.Cat {
			env.DeclaredSpiked = spikedCatalog(env.Declared, in)
		}
	}
	return env, nil
}

// newLeg wires one simulation leg. The fault leg runs the injector over the
// spiked catalogs; the fault-free leg runs the plain ones. Either way the
// simulator samples and bills on the truth while the planner (and est's
// prior) read the declaration. The run's options reach every leg of every
// env through the same three runcfg calls. A leg with an estimator plans
// live, as the estimator is fed by the leg's own revocations, and takes its
// quantiles from Plans; every other leg replays its planner input's trace
// from Plans.
func (e *Env) newLeg(rc runcfg.RunConfig, faults bool, j *metrics.Journal, est *risk.Estimator, name string, scratch *sim.Scratch) *sim.Simulator {
	truth, declared, in := e.Cat, e.Declared, (*chaos.Injector)(nil)
	if faults {
		truth, declared, in = e.Spiked, e.DeclaredSpiked, e.Injector
	}
	cfg := rc.Planner(e.Portfolio, declared)
	var policy sim.Policy
	if est != nil {
		est.ShareQuantiles(&e.Plans.Quantiles)
		policy = autoscale.Planner{Stepper: e.NewPlanner(cfg, declared, est), Label: name}
	} else {
		policy = replay{
			tr:    e.Plans.trace(planKey{declared, cfg, bitsKey(e.Workload.Values)}),
			label: name, workload: e.Workload,
			build: func() autoscale.Stepper { return e.NewPlanner(cfg, declared, nil) },
		}
	}
	return &sim.Simulator{
		Cfg: rc.Sim(sim.Config{
			Seed: e.Seed, TransiencyAware: true, Chaos: in, Journal: j, SubSteps: e.SubSteps,
		}, est),
		Cat:      truth,
		Workload: e.Workload,
		Policy:   policy,
		Scratch:  scratch,
	}
}

// Run executes a scenario from a prebuilt env and assembles its report
// (finalized, ready to encode). It is the single code path behind RunSim and
// every sweep cell, so a cell and a standalone run of the same (env, options)
// produce byte-identical encoded reports. rc's Seed and Quick are ignored
// here — the env carries the seed and run length.
//
// scratch, when non-nil, supplies reusable simulator working memory (one
// Scratch per worker — a Scratch must never be shared by concurrent runs).
// baseline, when non-nil and the env's SharedBaseline is set, is a fault-free
// leg result a previous Run returned for this exact (seed, hours, options)
// and is trusted instead of re-running the leg. The second return value is
// the baseline to hand to the next such Run: this run's when it is
// shareable, the caller's own otherwise.
func Run(env *Env, rc runcfg.RunConfig, scratch *sim.Scratch, baseline *sim.Result) (*chaos.Report, *sim.Result, error) {
	if env.NoAnchor {
		rc.AnchorMin = 0
	}
	legRisk := rc
	if env.AdaptivePolicy != "" {
		legRisk.Risk = false
	}

	j := metrics.NewJournal(8192)
	res, err := env.newLeg(rc, true, j, legRisk.Estimator(env.DeclaredSpiked), env.Policy, scratch).Run()
	if err != nil {
		return nil, nil, fmt.Errorf("runner: chaos run: %w", err)
	}
	var adaptive *chaos.AdaptiveComparison
	if env.AdaptivePolicy != "" {
		est := risk.New(defaultRiskConfig(), env.DeclaredSpiked)
		ad, err := env.newLeg(rc, true, nil, est, env.AdaptivePolicy, scratch).Run()
		if err != nil {
			return nil, nil, fmt.Errorf("runner: adaptive run: %w", err)
		}
		adaptive = &chaos.AdaptiveComparison{
			SLOAttainmentPct:    100 - ad.ViolationPct,
			ViolationPct:        ad.ViolationPct,
			DropFraction:        ad.DropFraction(),
			CostUSD:             ad.TotalCost,
			Revocations:         ad.Revocations,
			InjectedRevocations: ad.InjectedRevocations,
			Changepoints:        est.Changepoints(),
			MeanAbsDivergence:   est.MeanAbsDivergence(),
		}
		adaptive.RecoverySecs, _ = chaos.RecoveryFromSeries(ad.Attainment, recoveryTargetPct)
	}
	base := baseline
	if base == nil || !env.SharedBaseline {
		base, err = env.newLeg(rc, false, nil, legRisk.Estimator(env.Declared), env.Policy, scratch).Run()
		if err != nil {
			return nil, nil, fmt.Errorf("runner: baseline run: %w", err)
		}
	}
	if env.SharedBaseline {
		baseline = base
	}

	rep := &chaos.Report{
		Scenario:             env.Scenario.Name,
		Seed:                 env.Seed,
		Policy:               res.Policy,
		Intervals:            env.Hours,
		Markets:              env.Cat.Len(),
		InjectedRevocations:  res.InjectedRevocations,
		NaturalRevocations:   res.Revocations - res.InjectedRevocations,
		Actions:              make(map[string]int64, len(res.Actions)),
		EventCounts:          j.Counts(),
		SLOAttainmentPct:     100 - res.ViolationPct,
		ViolationPct:         res.ViolationPct,
		DropFraction:         res.DropFraction(),
		DroppedReqs:          res.Dropped,
		MeanLatencySec:       res.MeanLatency,
		OverloadSecs:         res.OverloadSecs,
		AdmissionEvents:      int64(res.AdmissionEvents),
		CostUSD:              res.TotalCost,
		BaselineCostUSD:      base.TotalCost,
		BaselineViolationPct: base.ViolationPct,
		Adaptive:             adaptive,
		RecoveryTargetPct:    recoveryTargetPct,
		AttainmentSeries:     chaos.DownsampleAttainment(res.Attainment, env.Hours),
		Restarts:             res.Restarts,
		AnchorMin:            rc.AnchorMin,
		Sentinel:             rc.Sentinel,
	}
	if f := env.Fed; f != nil {
		rep.Regions, rep.FedShards = len(f.Regions), len(f.Shards)
	}
	for k, v := range res.Actions {
		rep.Actions[k] = int64(v)
	}
	if base.TotalCost > 0 {
		rep.CostDeltaPct = 100 * (res.TotalCost - base.TotalCost) / base.TotalCost
	}
	// The worst first-fault → back-above-target episode in seconds, and the
	// episode count, from the chaos leg's sub-step attainment series.
	rep.RecoverySecs, rep.RecoveryEpisodes = chaos.RecoveryFromSeries(res.Attainment, recoveryTargetPct)
	rep.Finalize()
	return rep, baseline, nil
}

// RunSim compiles and runs one scenario on the simulator at the options'
// seed and run length. Scenarios whose env scores an adaptive leg (catalog
// lies, region outages) report in comparison mode: the primary fields score
// the planner that trusts the declared catalog, like every other scenario,
// and the Adaptive section scores the risk-estimator planner under identical
// faults, workload and seed.
func RunSim(sc *chaos.Scenario, rc runcfg.RunConfig) (*chaos.Report, error) {
	if sc == nil {
		return nil, fmt.Errorf("runner: scenario is required")
	}
	env, err := NewEnv(sc, rc.RunSeed(), ScenarioHours(rc.Quick), nil)
	if err != nil {
		return nil, err
	}
	rep, _, err := Run(env, rc, nil, nil)
	return rep, err
}
