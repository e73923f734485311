package runner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/risk"
	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// liveLeg is newLeg without plan sharing, the reference replayed legs are
// held to: the same simulator wiring, with every leg driving its own live
// planner.
func (e *Env) liveLeg(rc runcfg.RunConfig, faults bool, j *metrics.Journal, est *risk.Estimator, name string) *sim.Simulator {
	truth, declared, in := e.Cat, e.Declared, (*chaos.Injector)(nil)
	if faults {
		truth, declared, in = e.Spiked, e.DeclaredSpiked, e.Injector
	}
	return &sim.Simulator{
		Cfg: rc.Sim(sim.Config{
			Seed: e.Seed, TransiencyAware: true, Chaos: in, Journal: j, SubSteps: e.SubSteps,
		}, est),
		Cat:      truth,
		Workload: e.Workload,
		Policy:   autoscale.Planner{Stepper: e.NewPlanner(rc.Planner(e.Portfolio, declared), declared, est), Label: name},
	}
}

// shareVariants mirrors sweep.BuiltinVariants (the sweep package imports
// this one): default and sentinel plan alike, as do anchor and
// sentinel-anchor, so a cache keyed without the configuration hands one
// pair the other's trace.
var shareVariants = []runcfg.RunConfig{
	{},
	{Sentinel: true},
	{AnchorMin: 0.3},
	{Sentinel: true, AnchorMin: 0.3},
	{Risk: true},
}

// assertLegsMatchLive runs the fault and fault-free legs Run builds for rc —
// with its anchor and estimator choices — on env, replayed and live, and
// fails unless results and journals agree exactly.
func assertLegsMatchLive(t *testing.T, env *Env, rc runcfg.RunConfig) {
	t.Helper()
	if env.NoAnchor {
		rc.AnchorMin = 0
	}
	legRisk := rc
	if env.AdaptivePolicy != "" {
		legRisk.Risk = false
	}
	for _, faults := range []bool{true, false} {
		declared := env.Declared
		if faults {
			declared = env.DeclaredSpiked
		}
		var jr, jl *metrics.Journal
		if faults {
			jr, jl = metrics.NewJournal(8192), metrics.NewJournal(8192)
		}
		got, err := env.newLeg(rc, faults, jr, legRisk.Estimator(declared), env.Policy, nil).Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := env.liveLeg(rc, faults, jl, legRisk.Estimator(declared), env.Policy).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d %+v faults=%v: replayed leg differs from the live planner's (cost %v vs %v, violation %v vs %v)",
				env.Scenario.Name, env.Seed, rc, faults, got.TotalCost, want.TotalCost, got.ViolationPct, want.ViolationPct)
		}
		if !reflect.DeepEqual(jr.Counts(), jl.Counts()) {
			t.Fatalf("%s seed %d %+v: journal counts differ: %v vs %v", env.Scenario.Name, env.Seed, rc, jr.Counts(), jl.Counts())
		}
	}
}

// TestPlanSharingBitIdentical is the oracle for plan sharing: every fault and
// fault-free leg of every built-in scenario under every built-in variant, at
// two seeds, equals the same leg planned live — while all five variants of a
// scenario share the env's one cache, so a trace keyed too coarsely (no
// configuration, no catalog) or replayed off by a round is caught. A second
// env on the same catalog and cache but another workload must not be handed
// the first env's trace either.
func TestPlanSharingBitIdentical(t *testing.T) {
	hours := ScenarioHours(true)
	for _, seed := range []int64{42, 9} {
		for _, name := range chaos.BuiltinNames() {
			sc, err := chaos.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewEnv(sc, seed, hours, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range shareVariants {
				assertLegsMatchLive(t, env, rc)
			}
		}
	}

	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(sc, 42, hours, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEnv(sc, 42, hours, env.Cat)
	if err != nil {
		t.Fatal(err)
	}
	other.Plans = env.Plans
	vals := make([]float64, env.Workload.Len())
	for i, v := range env.Workload.Values {
		vals[i] = 0.8 * v
	}
	other.Workload = &trace.Series{Name: "scaled", StepHrs: env.Workload.StepHrs, Values: vals}
	assertLegsMatchLive(t, env, runcfg.RunConfig{})
	assertLegsMatchLive(t, other, runcfg.RunConfig{})
}

// failingStepper fails round k of an otherwise live planner.
type failingStepper struct {
	autoscale.Stepper
	k int
}

func (f failingStepper) Step(t int, lambda float64) (*portfolio.Decision, error) {
	if t == f.k {
		return nil, fmt.Errorf("stub planner fails round %d", t)
	}
	return f.Stepper.Step(t, lambda)
}

// TestPlanSharingReplaysPlannerError: a planner that fails at round k fails
// a replayed leg exactly where it fails a live one — the same error text at
// the same simulated interval — for the leg that records the trace and for
// the leg that only replays it.
func TestPlanSharingReplaysPlannerError(t *testing.T) {
	const k = 5
	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(sc, 42, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := env.NewPlanner
	env.NewPlanner = func(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper {
		return failingStepper{build(cfg, declared, est), k}
	}
	rc := runcfg.RunConfig{}
	_, want := env.liveLeg(rc, true, nil, nil, env.Policy).Run()
	if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("at t=%d:", k+1)) {
		t.Fatalf("live leg error = %v, want the stub's failure at t=%d", want, k+1)
	}
	for _, faults := range []bool{true, false} {
		if _, got := env.newLeg(rc, faults, nil, nil, env.Policy, nil).Run(); got == nil || got.Error() != want.Error() {
			t.Fatalf("faults=%v: replayed leg error = %v, want %q", faults, got, want)
		}
	}
}

// TestPlanCacheCountsWait: a leg that finds its trace still being recorded
// by another leg adds the time it slept to the cache's wait; the recording
// leg and a leg that arrives after the trace is done add nothing.
func TestPlanCacheCountsWait(t *testing.T) {
	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(sc, 42, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	build := env.NewPlanner
	env.NewPlanner = func(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper {
		close(started) // a second build would panic: the trace is recorded once
		<-release
		return build(cfg, declared, est)
	}
	run := func(errs chan<- error) {
		_, err := env.newLeg(runcfg.RunConfig{}, false, nil, nil, env.Policy, nil).Run()
		errs <- err
	}
	errs := make(chan error, 2)
	go run(errs)
	<-started
	t0 := time.Now()
	go run(errs)
	time.Sleep(30 * time.Millisecond)
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	bound := time.Since(t0)
	traces, replays, wait := env.Plans.Stats()
	if traces != 1 || replays != 2 {
		t.Fatalf("%d traces replayed by %d legs, want 1 by 2", traces, replays)
	}
	if wait <= 0 || wait > bound {
		t.Fatalf("legs waited %v, want a positive wait of at most the waiting leg's %v", wait, bound)
	}
	go run(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if _, _, again := env.Plans.Stats(); again != wait {
		t.Fatalf("a leg replaying a finished trace moved the wait from %v to %v", wait, again)
	}
}

// TestRegionOutageRefusesPriceSpike: a region-outage env plans and bills on
// the federation's unspiked catalogs, so a price spike in the same scenario
// used to vanish while the report named the scenario as run. It is refused,
// naming both fault kinds.
func TestRegionOutageRefusesPriceSpike(t *testing.T) {
	sc, err := chaos.Builtin("region-outage")
	if err != nil {
		t.Fatal(err)
	}
	sc.Faults = append(append([]chaos.FaultSpec(nil), sc.Faults...),
		chaos.FaultSpec{Kind: chaos.KindPriceSpike, Start: 0.3, Duration: 0.3, Severity: 3})
	if err := sc.Validate(); err != nil {
		t.Fatalf("the scenario itself is valid: %v", err)
	}
	if _, err := NewEnv(sc, 42, 12, nil); err == nil ||
		!strings.Contains(err.Error(), string(chaos.KindRegionOutage)) || !strings.Contains(err.Error(), string(chaos.KindPriceSpike)) {
		t.Fatalf("NewEnv = %v, want an error naming region_outage and price_spike", err)
	}
	if _, err := RunSim(sc, runcfg.RunConfig{Seed: 42, Quick: true}); err == nil {
		t.Fatal("RunSim ran a region outage with a price spike")
	}
}

// suiteScenarios mirrors sweep.StandardSuiteScenarios (the sweep package
// imports this one): the scenarios of the benchmark grid, which share one
// standard catalog per seed.
var suiteScenarios = []string{"combined", "flap", "late-warning", "price-spike", "storm"}

// TestQuantileSharingBitIdentical is the oracle for shared quantiles: the
// risk legs of every benchmark-grid scenario plus their fault-free baseline,
// at two seeds, with every estimator of a seed taking its quantiles from one
// memo, equal the same legs with estimators that compute their own — results
// and final overlays alike. Two credible levels share the memo, so a key
// that dropped p would hand one level the other's bound.
func TestQuantileSharingBitIdentical(t *testing.T) {
	hours := ScenarioHours(true)
	for _, seed := range []int64{42, 9} {
		cat, plans := StandardCatalog(seed, hours), &PlanCache{}
		for i, name := range suiteScenarios {
			sc, err := chaos.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewEnv(sc, seed, hours, cat)
			if err != nil {
				t.Fatal(err)
			}
			env.Plans = plans
			legs := []bool{true}
			if i == 0 {
				legs = append(legs, false) // the baseline all five share
			}
			for _, rc := range []runcfg.RunConfig{{Risk: true}, {Risk: true, RiskQuantile: 0.8}} {
				for _, faults := range legs {
					declared := env.Declared
					if faults {
						declared = env.DeclaredSpiked
					}
					shared, alone := rc.Estimator(declared), rc.Estimator(declared)
					got, err := env.newLeg(rc, faults, nil, shared, env.Policy, nil).Run()
					if err != nil {
						t.Fatal(err)
					}
					want, err := env.liveLeg(rc, faults, nil, alone, env.Policy).Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d %+v faults=%v: shared-quantile leg differs (cost %v vs %v, violation %v vs %v)",
							name, seed, rc, faults, got.TotalCost, want.TotalCost, got.ViolationPct, want.ViolationPct)
					}
					if !reflect.DeepEqual(shared.Overlay(), alone.Overlay()) {
						t.Fatalf("%s seed %d %+v faults=%v: final overlays differ: %v vs %v",
							name, seed, rc, faults, shared.Overlay().FailProb, alone.Overlay().FailProb)
					}
				}
			}
		}
		if _, hits := plans.Quantiles.Stats(); hits == 0 {
			t.Fatalf("seed %d: the memo served no quantile", seed)
		}
	}
}
