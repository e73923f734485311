package runcfg

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/sim"
)

func TestBindFlagsDefaultsArePaperConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	rc := f.Config()
	want := RunConfig{Seed: 42, HighUtil: 0.85, WarningSec: 120}
	if rc != want {
		t.Fatalf("defaults = %+v, want %+v", rc, want)
	}
}

func TestBindFlagsParsesOverrides(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFlags(fs)
	args := []string{
		"-quick", "-seed", "7", "-high-util", "0.7",
		"-warning", "30", "-warm-start=false",
		"-risk", "-risk-quantile", "0.95", "-risk-halflife", "12",
		"-anchor-min", "0.3", "-sentinel",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	rc := f.Config()
	want := RunConfig{
		Quick: true, Seed: 7, HighUtil: 0.7, WarningSec: 30,
		ColdStart: true, Risk: true,
		RiskQuantile: 0.95, RiskHalfLife: 12, AnchorMin: 0.3, Sentinel: true,
	}
	if rc != want {
		t.Fatalf("parsed = %+v, want %+v", rc, want)
	}
}

func TestDaemonFlagsOmitRunShapeKnobs(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	BindDaemonFlags(fs)
	// -kkt selected an ADMM backend no binary can reach; it is gone for good.
	// -parallelism sizes the federation shard pool and is bound there, beside
	// the other federation flags; spotwebd binds both sets on one FlagSet, so
	// a second registration here would panic.
	for _, name := range []string{"quick", "warning", "sentinel", "kkt", "parallelism"} {
		if fs.Lookup(name) != nil {
			t.Errorf("daemon flag set must not define -%s", name)
		}
	}
	for _, name := range []string{"seed", "high-util", "risk"} {
		if fs.Lookup(name) == nil {
			t.Errorf("daemon flag set missing -%s", name)
		}
	}
}

func TestRunSeedDefault(t *testing.T) {
	if got := (RunConfig{}).RunSeed(); got != 42 {
		t.Fatalf("zero-value seed = %d, want 42", got)
	}
	if got := (RunConfig{Seed: 7}).RunSeed(); got != 7 {
		t.Fatalf("seed override = %d, want 7", got)
	}
}

func TestPlannerAnchorNeedsOnDemandMarket(t *testing.T) {
	allSpot := &market.Catalog{Markets: []*market.Market{{Transient: true}}}
	mixed := &market.Catalog{Markets: []*market.Market{{Transient: true}, {Transient: false}}}
	o := RunConfig{AnchorMin: 0.25}
	if cfg := o.Planner(portfolio.Config{}, allSpot); cfg.AMinOnDemand != 0 {
		t.Fatalf("anchor applied on all-spot catalog: %v", cfg.AMinOnDemand)
	}
	if cfg := o.Planner(portfolio.Config{}, mixed); cfg.AMinOnDemand != 0.25 {
		t.Fatalf("anchor not applied on mixed catalog: %v", cfg.AMinOnDemand)
	}
}

// TestLegWiring pins the one RunConfig → (portfolio.Config, risk.Estimator,
// sim.Config) mapping every simulated leg goes through: the zero value
// changes nothing, and each knob lands on the field it names.
func TestLegWiring(t *testing.T) {
	cat := market.CatalogConfig{Seed: 1, NumTypes: 2, IncludeOnDemand: true, Hours: 8}.Generate()
	base := portfolio.Config{Horizon: 3, AMaxPerMarket: 0.4}
	leg := sim.Config{Seed: 9, TransiencyAware: true, SubSteps: 20}

	var zero RunConfig
	if got := zero.Planner(base, cat); got != base {
		t.Fatalf("zero RunConfig changed the planner config: %+v", got)
	}
	if zero.Estimator(cat) != nil {
		t.Fatal("zero RunConfig built an estimator")
	}
	if got := zero.Sim(leg, nil); got.Seed != 9 || got.SubSteps != 20 || !got.TransiencyAware ||
		got.HighUtil != 0 || got.WarningSec != 0 || got.Sentinel || got.Risk != nil {
		t.Fatalf("zero RunConfig changed the sim config: %+v", got)
	}

	o := RunConfig{ColdStart: true, AnchorMin: 0.3, HighUtil: 0.7, WarningSec: 30, Sentinel: true, Risk: true}
	pc := o.Planner(base, cat)
	if !pc.DisableWarmStart || pc.AMinOnDemand != 0.3 || pc.Horizon != 3 {
		t.Fatalf("planner config = %+v", pc)
	}
	est := o.Estimator(cat)
	if est == nil {
		t.Fatal("Risk set but no estimator")
	}
	sc := o.Sim(leg, est)
	if sc.HighUtil != 0.7 || sc.WarningSec != 30 || !sc.Sentinel || sc.Risk != cluster.RiskObserver(est) || sc.Seed != 9 {
		t.Fatalf("sim config = %+v", sc)
	}
}

func TestZeroValueMarshalsEmpty(t *testing.T) {
	data, err := json.Marshal(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Fatalf("zero RunConfig marshals to %s, want {} (absent fields mean paper defaults)", data)
	}
}

// TestValidate: every value the flags used to take silently — a NaN
// threshold scored a storm 98.65 instead of 82.41, a negative warning or an
// out-of-range quantile ran the defaults — is an error naming the flag; the
// zero value and the flag defaults are valid.
func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		rc      RunConfig
		wantErr string
	}{
		{rc: RunConfig{}},
		{rc: RunConfig{Seed: 42, HighUtil: 0.85, WarningSec: 120}},
		{rc: RunConfig{HighUtil: 0.7, WarningSec: 30, AnchorMin: 1, Risk: true, RiskQuantile: 0.95, RiskHalfLife: 12}},
		{rc: RunConfig{HighUtil: nan}, wantErr: "-high-util NaN"},
		{rc: RunConfig{HighUtil: -0.5}, wantErr: "-high-util -0.5"},
		{rc: RunConfig{WarningSec: nan}, wantErr: "-warning NaN"},
		{rc: RunConfig{WarningSec: -100}, wantErr: "-warning -100"},
		{rc: RunConfig{WarningSec: inf}, wantErr: "-warning +Inf"},
		{rc: RunConfig{AnchorMin: -0.1}, wantErr: "-anchor-min -0.1"},
		{rc: RunConfig{AnchorMin: 1.5}, wantErr: "-anchor-min 1.5: want a share of at most 1"},
		{rc: RunConfig{RiskQuantile: 1.5}, wantErr: "-risk-quantile 1.5: want a quantile below 1"},
		{rc: RunConfig{RiskQuantile: 1}, wantErr: "-risk-quantile 1:"},
		{rc: RunConfig{RiskQuantile: -0.2}, wantErr: "-risk-quantile -0.2"},
		{rc: RunConfig{RiskHalfLife: math.Inf(-1)}, wantErr: "-risk-halflife -Inf"},
	} {
		err := tc.rc.Validate()
		if tc.wantErr == "" && err != nil {
			t.Errorf("%+v: unexpected error %v", tc.rc, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%+v: error %v, want one containing %q", tc.rc, err, tc.wantErr)
		}
	}
}

// FuzzRunConfig decodes a grid-file RunConfig strictly (unknown fields are
// errors) and validates it; a config Validate accepts must lay over a
// planner, a simulator and an estimator without panicking.
func FuzzRunConfig(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"quick":true,"seed":7,"high_util":0.7,"warning_sec":30,"cold_start":true}`))
	f.Add([]byte(`{"risk":true,"risk_quantile":0.95,"risk_halflife":12,"anchor_min":0.3,"sentinel":true}`))
	f.Add([]byte(`{"risk":true,"risk_quantile":0.999999,"risk_halflife":1e300,"anchor_min":1}`))
	f.Add([]byte(`{"warning_sec":-100}`))
	f.Add([]byte(`{"high_util":1e309}`))
	f.Add([]byte(`{"parallelism":4}`))
	cat := market.CatalogConfig{Seed: 1, NumTypes: 2, IncludeOnDemand: true, Hours: 8}.Generate()
	f.Fuzz(func(t *testing.T, data []byte) {
		var rc RunConfig
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rc); err != nil || rc.Validate() != nil {
			return
		}
		est := rc.Estimator(cat)
		if (est != nil) != rc.Risk {
			t.Fatalf("%+v: estimator %v", rc, est)
		}
		rc.Planner(portfolio.Config{Horizon: 3}, cat)
		rc.Sim(sim.Config{Seed: 9}, est)
	})
}
