package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/risk"
	"repro/internal/runcfg"
)

// TestBuiltinScenarioGoldens runs every built-in scenario at the CI seed and
// byte-compares the scored report against the one golden set, the files
// `make chaos` checks (regenerate with `make chaos-golden`). On top of that
// every report must be sane, and under both catalog-lie scenarios — the
// acceptance gate for the adaptive risk estimator — the adaptive planner
// must strictly dominate the oracle-prior planner: better SLO attainment at
// equal-or-lower cost.
func TestBuiltinScenarioGoldens(t *testing.T) {
	for _, name := range chaos.BuiltinNames() {
		t.Run(name, func(t *testing.T) {
			sc, err := chaos.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunSim(sc, runcfg.RunConfig{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Score < 0 || rep.Score > 100 {
				t.Errorf("score %v out of range", rep.Score)
			}
			if rep.BaselineCostUSD <= 0 || rep.CostUSD <= 0 {
				t.Errorf("costs not accounted: %v / %v", rep.CostUSD, rep.BaselineCostUSD)
			}
			if rep.InjectedRevocations == 0 {
				t.Error("injected no revocations")
			}
			if rep.Scenario != name {
				t.Errorf("report labeled %q", rep.Scenario)
			}
			if sc.CatalogLie != nil {
				ad := rep.Adaptive
				if ad == nil {
					t.Fatal("lie scenario produced no adaptive comparison")
				}
				if !ad.Dominates {
					t.Fatalf("adaptive does not dominate oracle-prior: SLO gain %+.3f pts, cost delta %+.2f%%",
						ad.SLOGainPct, ad.CostDeltaPct)
				}
				if ad.SLOGainPct <= 0 {
					t.Fatalf("SLO gain %+.4f pts not strictly positive", ad.SLOGainPct)
				}
				if ad.CostDeltaPct > 0 {
					t.Fatalf("adaptive costs %+.2f%% more than oracle", ad.CostDeltaPct)
				}
				if ad.MeanAbsDivergence <= 0 {
					t.Fatal("estimator never diverged from the (lying) declared catalog")
				}
			}

			b, err := rep.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "..", "cmd", "spotweb-chaos", "testdata", "golden", name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, want) {
				t.Fatalf("report drifted from golden %s (`make chaos-golden` if intentional)", path)
			}
		})
	}
}

// TestLegCarriesRunConfig: every leg of every kind of env is wired from the
// RunConfig the same way. The region-outage path used to build its legs by
// hand and silently dropped -high-util, -warning and -warm-start; its one
// deliberate difference, the cleared anchor floor, is data on the env.
//
// It also pins how many planners Run builds — one per distinct planner input
// of the estimator-free legs, plus one per adaptive leg:
//   - storm: the fault and fault-free legs declare the same catalog, 1;
//   - stale-catalog: its price spike on the deceitful pool gives the fault
//     leg a spiked declaration of its own, 2 traces + the adaptive leg, 3;
//   - region-outage: 1 trace + the adaptive leg, 2.
func TestLegCarriesRunConfig(t *testing.T) {
	rc := runcfg.RunConfig{
		HighUtil: 0.7, WarningSec: 30, Sentinel: true,
		ColdStart: true, AnchorMin: 0.3,
	}
	for _, tc := range []struct {
		name       string
		wantBuilds int
	}{{"storm", 1}, {"stale-catalog", 3}, {"region-outage", 2}} {
		name, wantBuilds := tc.name, tc.wantBuilds
		t.Run(name, func(t *testing.T) {
			sc, err := chaos.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewEnv(sc, 42, 12, nil)
			if err != nil {
				t.Fatal(err)
			}
			env.SubSteps = 20
			for _, faults := range []bool{true, false} {
				c := env.newLeg(rc, faults, nil, nil, env.Policy, nil).Cfg
				if c.HighUtil != 0.7 || c.WarningSec != 30 || !c.Sentinel || c.SubSteps != 20 ||
					c.Seed != 42 || !c.TransiencyAware || (c.Chaos != nil) != faults {
					t.Fatalf("faults=%v: sim.Config = %+v", faults, c)
				}
			}

			// The planner configuration of every planner Run builds.
			var built []portfolio.Config
			build := env.NewPlanner
			env.NewPlanner = func(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper {
				built = append(built, cfg)
				return build(cfg, declared, est)
			}
			rep, _, err := Run(env, rc, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantAnchor := 0.3
			if env.NoAnchor {
				wantAnchor = 0
			}
			if len(built) != wantBuilds {
				t.Fatalf("Run built %d planners, want %d", len(built), wantBuilds)
			}
			for i, pc := range built {
				if !pc.DisableWarmStart || pc.AMinOnDemand != wantAnchor ||
					pc.AMaxPerMarket != env.Portfolio.AMaxPerMarket {
					t.Fatalf("planner %d: portfolio.Config = %+v", i, pc)
				}
			}
			if rep.AnchorMin != wantAnchor || !rep.Sentinel {
				t.Fatalf("report knobs = (anchor %v, sentinel %v), want (%v, true)", rep.AnchorMin, rep.Sentinel, wantAnchor)
			}
		})
	}
}
