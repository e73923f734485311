package microsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lb"
	"repro/internal/metrics"
	"repro/internal/stats"
)

func TestMM1PSLatencyMatchesTheory(t *testing.T) {
	// Single server, capacity 100 req/s, offered 70 req/s: M/M/1-PS mean
	// sojourn time = S/(1−ρ) = (1/100)/(1−0.7) = 33.3 ms.
	res, err := Run(Config{
		Seed: 1, Duration: 400, Rate: 70,
		Servers: []float64{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served < 20000 {
		t.Fatalf("served = %d", res.Served)
	}
	lats := res.LatenciesBetween(50, 400) // skip transient
	mean := stats.Mean(lats)
	want := (1.0 / 100) / (1 - 0.7)
	if math.Abs(mean-want) > 0.2*want {
		t.Fatalf("mean sojourn %v, theory %v", mean, want)
	}
	if res.DropFraction() > 0.001 {
		t.Fatalf("drops at ρ=0.7: %v", res.DropFraction())
	}
}

func TestThroughputConservation(t *testing.T) {
	// Stable system: served + dropped ≈ arrivals ≈ rate×duration.
	res, err := Run(Config{
		Seed: 2, Duration: 200, Rate: 50,
		Servers: []float64{40, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Served + res.Dropped
	want := 50.0 * 200
	if math.Abs(float64(total)-want) > 0.05*want {
		t.Fatalf("total %d vs expected ≈%v", total, want)
	}
}

func TestOverloadShedsLoad(t *testing.T) {
	// Offered 150 on capacity 100: ≈1/3 must be shed.
	res, err := Run(Config{
		Seed: 3, Duration: 120, Rate: 150,
		Servers: []float64{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.DropFraction(); f < 0.2 || f > 0.45 {
		t.Fatalf("drop fraction %v, want ≈1/3", f)
	}
}

func TestRevocationTransiencyAwareVsVanilla(t *testing.T) {
	mk := func(vanilla bool) *Result {
		res, err := Run(Config{
			Seed: 5, Duration: 480, Rate: 150, Sessions: 600,
			Servers: []float64{
				25, 25,
				50, 50, 40, 40,
			},
			Revocations: []Revocation{{At: 180, Servers: []int{2, 3, 4, 5}}},
			StartDelay:  60,
			Warning:     120,
			Vanilla:     vanilla,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aware := mk(false)
	vanilla := mk(true)
	if f := aware.DropFraction(); f > 0.02 {
		t.Fatalf("aware drops %v, want ≈0", f)
	}
	// Vanilla keeps routing to the dead servers: heavy post-termination
	// drops (the Fig. 4(a) contrast, now fully deterministic in-sim).
	post := vanilla.DropsBetween(330, 480)
	postServed := len(vanilla.LatenciesBetween(330, 480))
	frac := float64(post) / float64(post+postServed)
	if frac < 0.4 {
		t.Fatalf("vanilla post-revocation drop fraction %v, want large", frac)
	}
	if aware.DropFraction() >= vanilla.DropFraction() {
		t.Fatal("aware must beat vanilla")
	}
}

func TestRevocationLatencyRecovers(t *testing.T) {
	res, err := Run(Config{
		Seed: 6, Duration: 480, Rate: 150,
		Servers:     []float64{25, 25, 50, 50, 40, 40},
		Revocations: []Revocation{{At: 180, Servers: []int{2, 3, 4, 5}}},
		StartDelay:  60,
		Warning:     120,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := stats.Mean(res.LatenciesBetween(60, 180))
	after := stats.Mean(res.LatenciesBetween(400, 480))
	if after > 3*before {
		t.Fatalf("latency did not recover: before %v after %v", before, after)
	}
}

// TestBootDelayGatesService: the initial fleet serves from 0, and a
// replacement serves only once its boot ends. A lone server revoked with a 1-s
// warning cannot be replaced in time (admission control); between its
// termination and the replacement's boot nothing serves.
func TestBootDelayGatesService(t *testing.T) {
	res, err := Run(Config{
		Seed: 7, Duration: 65, Rate: 50,
		Servers:     []float64{100},
		Revocations: []Revocation{{At: 5, Servers: []int{0}}},
		StartDelay:  30,
		Warning:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := len(res.LatenciesBetween(0, 5)); s < 150 {
		t.Fatalf("initial fleet served %d before the revocation", s)
	}
	if d := res.DropsBetween(6.5, 34); d < 1000 {
		t.Fatalf("pre-boot drops = %d, want ≈all arrivals", d)
	}
	if s := len(res.LatenciesBetween(36, 65)); s < 1000 {
		t.Fatalf("post-boot served = %d", s)
	}
	if len(res.Actions) != 1 || res.Actions[0] != lb.ActionAdmissionControl {
		t.Fatalf("actions = %v, want [admission_control]", res.Actions)
	}
	for _, ev := range []string{metrics.EvReplacementStarted, metrics.EvReplacementUp,
		metrics.EvAdmissionOn, metrics.EvAdmissionOff} {
		if n := res.Journal[ev]; n != 1 {
			t.Fatalf("%s journaled %d times, want 1", ev, n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := Run(Config{Duration: 10, Rate: 10}); err == nil {
		t.Fatal("expected no-servers error")
	}
}

// TestRevocationsOutOfOrder: a revocation listed after a later one would be
// applied behind the fleet's clock (server 1 reaped at once, at 10 s, for a
// warning due at 2 s), so Run rejects the script and names both times.
func TestRevocationsOutOfOrder(t *testing.T) {
	_, err := Run(Config{
		Seed: 1, Duration: 20, Rate: 30,
		Servers:     []float64{50, 50, 50},
		Revocations: []Revocation{{At: 10, Servers: []int{0}}, {At: 2, Servers: []int{1}}},
		Warning:     1,
	})
	if err == nil || !strings.Contains(err.Error(), "at 2s") || !strings.Contains(err.Error(), "at 10s") {
		t.Fatalf("err = %v, want one naming both revocation times", err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		res, err := Run(Config{
			Seed: 8, Duration: 60, Rate: 100,
			Servers: []float64{80, 80},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Served != b.Served || a.Dropped != b.Dropped {
		t.Fatal("microsim must be deterministic per seed")
	}
}

// TestRunIsDeterministic: repeated runs of one Config — revocations,
// replacements, migration and sticky sessions included — return identical
// Results, sample for sample.
func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, Duration: 240, Rate: 180, Sessions: 64,
		Servers:     []float64{60, 60, 40, 40, 20},
		Revocations: []Revocation{{At: 60, Servers: []int{0, 1, 2}}},
		StartDelay:  20,
		Warning:     30,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 8; run++ {
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Served != want.Served || got.Dropped != want.Dropped || len(got.Samples) != len(want.Samples) {
			t.Fatalf("run %d: served/dropped/samples %d/%d/%d, first run %d/%d/%d", run,
				got.Served, got.Dropped, len(got.Samples), want.Served, want.Dropped, len(want.Samples))
		}
		for i, s := range want.Samples {
			if got.Samples[i] != s {
				t.Fatalf("run %d: sample %d = %+v, first run %+v", run, i, got.Samples[i], s)
			}
		}
		if !reflect.DeepEqual(got.Journal, want.Journal) || !reflect.DeepEqual(got.Actions, want.Actions) {
			t.Fatalf("run %d: journal %v actions %v, first run %v %v", run, got.Journal, got.Actions, want.Journal, want.Actions)
		}
	}
	if n := want.Journal[metrics.EvReplacementUp]; n != 3 {
		t.Fatalf("%d replacements came up, want one per reprovisioned victim (3)", n)
	}
}
