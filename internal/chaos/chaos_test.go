package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lb"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []Scenario{
		{Name: "", Faults: []FaultSpec{{Kind: KindWarningLoss, Start: 0, Duration: 0.1}}},
		{Name: "empty"},
		{Name: "late", Faults: []FaultSpec{{Kind: KindStorm, Start: 1.2, Count: 1}}},
		{Name: "overrun", Faults: []FaultSpec{{Kind: KindSlowdown, Start: 0.9, Duration: 0.5, Severity: 0.5}}},
		{Name: "storm-untargeted", Faults: []FaultSpec{{Kind: KindStorm, Start: 0.1}}},
		{Name: "copula-no-corr", Faults: []FaultSpec{{Kind: KindStorm, Start: 0.1, Prob: 0.5}}},
		{Name: "bad-slowdown", Faults: []FaultSpec{{Kind: KindSlowdown, Start: 0.1, Duration: 0.1, Severity: 1.5}}},
		{Name: "bad-delay", Faults: []FaultSpec{{Kind: KindWarningDelay, Start: 0.1, Duration: 0.1, Severity: 1}}},
		{Name: "bad-spike", Faults: []FaultSpec{{Kind: KindPriceSpike, Start: 0.1, Duration: 0.1, Severity: 0.5}}},
		{Name: "bad-flap", Faults: []FaultSpec{{Kind: KindFlap, Start: 0.1, Duration: 0.1, Severity: 0.5}}},
		// Compile would step t += Period forever: 0.5 + 1e-20 == 0.5.
		{Name: "tiny-flap", Faults: []FaultSpec{{Kind: KindFlap, Start: 0.5, Duration: 0.1, Period: 1e-20, Severity: 0.5}}},
		{Name: "tiny-flap-window", Faults: []FaultSpec{{Kind: KindFlap, Start: 0.5, Duration: 1e-300, Period: 1e-300, Severity: 0.5}}},
		{Name: "bad-kind", Faults: []FaultSpec{{Kind: "meteor", Start: 0.1}}},
		{Name: "bad-corr", Correlation: [][]float64{{1, 0.5}}, Faults: []FaultSpec{{Kind: KindWarningLoss, Start: 0, Duration: 0.1}}},
	}
	for _, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("scenario %q should not validate", sc.Name)
		}
	}
}

func TestBuiltinsCompile(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		// Lying-catalog scenarios target the runner's wider lie catalog (6
		// types + on-demand twins = 12 markets); the rest use the standard 6.
		markets := 6
		if sc.CatalogLie != nil {
			markets = 12
		}
		in, err := Compile(sc, 42, markets)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		if in == nil || sc.Name != name {
			t.Fatalf("scenario name = %q", sc.Name)
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Fatal("unknown builtin should error")
	}
}

func TestCompileDeterministic(t *testing.T) {
	sc, _ := Builtin("combined")
	a, err := Compile(sc, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Compile(sc, 7, 6)
	if !reflect.DeepEqual(a.Revocations(0, 1), b.Revocations(0, 1)) {
		t.Fatal("same seed must compile the same storm victims")
	}
	if a.StartDelayFactor(0.5) != b.StartDelayFactor(0.5) {
		t.Fatal("same seed must compile the same jitter factors")
	}
	// A different seed must be able to change the copula draw (probabilistic,
	// but across 20 seeds at prob 0.6 at least one set must differ).
	base := a.Revocations(0.49, 0.51)
	changed := false
	for s := int64(1); s <= 20 && !changed; s++ {
		c, _ := Compile(sc, s, 6)
		if !reflect.DeepEqual(c.Revocations(0.49, 0.51), base) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("copula draw ignored the seed")
	}
}

func TestInjectorWindows(t *testing.T) {
	sc := &Scenario{
		Name: "w",
		Faults: []FaultSpec{
			{Kind: KindWarningDelay, Start: 0.2, Duration: 0.2, Severity: 0.5},
			{Kind: KindWarningLoss, Start: 0.3, Duration: 0.1},
			{Kind: KindSlowdown, Start: 0.5, Duration: 0.2, Severity: 0.6},
			{Kind: KindPriceSpike, Start: 0.1, Duration: 0.3, Severity: 2, Markets: []int{1}},
			{Kind: KindStartJitter, Start: 0.6, Duration: 0.2, Severity: 1},
			{Kind: KindForceAction, Start: 0.7, Duration: 0.1, Severity: 2},
			{Kind: KindStorm, Start: 0.55, Markets: []int{0, 1}, WarnScale: ptr(0.25)},
		},
	}
	in, err := Compile(sc, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.WarnScale(0.25); got != 0.5 {
		t.Fatalf("WarnScale in delay window = %g", got)
	}
	if got := in.WarnScale(0.35); got != 0 {
		t.Fatalf("WarnScale in loss window = %g (min must win)", got)
	}
	if got := in.WarnScale(0.45); got != 1 {
		t.Fatalf("WarnScale outside windows = %g", got)
	}
	if got := in.CapacityFactor(0.55); got != 0.6 {
		t.Fatalf("CapacityFactor = %g", got)
	}
	if got := in.CapacityFactor(0.75); got != 1 {
		t.Fatalf("CapacityFactor outside = %g", got)
	}
	if got := in.PriceFactor(0.2, 1); got != 2 {
		t.Fatalf("PriceFactor market 1 = %g", got)
	}
	if got := in.PriceFactor(0.2, 0); got != 1 {
		t.Fatalf("PriceFactor untargeted market = %g", got)
	}
	if f := in.StartDelayFactor(0.7); f < 1.5 || f > 2.5 {
		t.Fatalf("StartDelayFactor = %g, want in [1.5, 2.5]", f)
	}
	if a, ok := in.ForcedAction(0.75); !ok || a != lb.ActionAdmissionControl {
		t.Fatalf("ForcedAction = %v/%v", a, ok)
	}
	if _, ok := in.ForcedAction(0.65); ok {
		t.Fatal("ForcedAction outside window")
	}
	revs := in.Revocations(0.5, 0.6)
	if len(revs) != 1 || revs[0].WarnScale != 0.25 || len(revs[0].Markets) != 2 {
		t.Fatalf("Revocations = %+v", revs)
	}
	if in.Revocations(0.6, 1) != nil {
		t.Fatal("no revocations expected after 0.6")
	}
	hook := in.BalancerHook(func() float64 { return 0.75 })
	if a, ok := hook(); !ok || a != lb.ActionAdmissionControl {
		t.Fatalf("BalancerHook = %v/%v", a, ok)
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.WarnScale(0.5) != 1 || in.CapacityFactor(0.5) != 1 ||
		in.PriceFactor(0.5, 0) != 1 || in.StartDelayFactor(0.5) != 1 {
		t.Fatal("nil injector must return fault-free factors")
	}
	if _, ok := in.ForcedAction(0.5); ok {
		t.Fatal("nil injector must not force actions")
	}
	if in.Revocations(0, 1) != nil {
		t.Fatal("nil injector must have no revocations")
	}
	if in.BalancerHook(nil) != nil {
		t.Fatal("nil injector hook must be nil")
	}
}

func TestFlapExpandsToSquareWave(t *testing.T) {
	sc := &Scenario{Name: "f", Faults: []FaultSpec{
		{Kind: KindFlap, Start: 0.2, Duration: 0.4, Period: 0.2, Severity: 0.5},
	}}
	in, err := Compile(sc, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Degraded half-periods: [0.2,0.3) and [0.4,0.5); full in between.
	for _, tc := range []struct {
		x    float64
		want float64
	}{{0.25, 0.5}, {0.35, 1}, {0.45, 0.5}, {0.55, 1}} {
		if got := in.CapacityFactor(tc.x); got != tc.want {
			t.Fatalf("CapacityFactor(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc, _ := Builtin("storm")
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "storm.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, sc)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestReportFinalizeAndEncode(t *testing.T) {
	r := &Report{
		Scenario: "x", Seed: 1, Policy: "spotweb",
		SLOAttainmentPct: 98.1234567, DropFraction: 0.02,
		CostDeltaPct: 10,
		Actions:      map[string]int64{"redistribute": 2},
	}
	r.Finalize()
	if r.SLOAttainmentPct != 98.123457 {
		t.Fatalf("rounding broken: %v", r.SLOAttainmentPct)
	}
	want := 0.5*98.123457 + 0.25*98 + 0.25*90
	if diff := r.Score - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("score = %v, want %v", r.Score, want)
	}
	a, err := r.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("encoding should end with newline")
	}
}

// TestRevocationVictims: the one storm-victim rule both the simulator and the
// testbed resolve a Revocation by. live counts each market's live servers,
// with non-transient markets at 0; explicit lists keep their order.
func TestRevocationVictims(t *testing.T) {
	live := []int{2, 0, 3, 2, 1}
	for _, tc := range []struct {
		name string
		rv   Revocation
		want []int
	}{
		{"count ties by index", Revocation{Count: 3}, []int{2, 0, 3}},
		{"count one", Revocation{Count: 1}, []int{2}},
		{"count above live markets", Revocation{Count: 9}, []int{2, 0, 3, 4}},
		{"count zero", Revocation{}, nil},
		{"explicit keeps order", Revocation{Markets: []int{4, 0}}, []int{4, 0}},
		{"explicit skips empty", Revocation{Markets: []int{1, 3}}, []int{3}},
		{"explicit skips out of range", Revocation{Markets: []int{-1, 5, 2}}, []int{2}},
		{"explicit beats count", Revocation{Markets: []int{1}, Count: 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.rv.Victims([]int{7}, live)
			if want := append([]int{7}, tc.want...); !slices.Equal(got, want) {
				t.Fatalf("Victims = %v, want %v after the buffer's own 7", got, want)
			}
		})
	}
	buf := make([]int, 0, len(live))
	rv := Revocation{Count: 2}
	if n := testing.AllocsPerRun(100, func() { buf = rv.Victims(buf[:0], live) }); n != 0 {
		t.Fatalf("Victims allocates %v times into a buffer with room", n)
	}
}
