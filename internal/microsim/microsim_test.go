package microsim

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestMM1PSLatencyMatchesTheory(t *testing.T) {
	// Single server, capacity 100 req/s, offered 70 req/s: M/M/1-PS mean
	// sojourn time = S/(1−ρ) = (1/100)/(1−0.7) = 33.3 ms.
	res, err := Run(Config{
		Seed: 1, Duration: 400, Rate: 70,
		Servers: []ServerSpec{{Capacity: 100}},
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
		Servers: []ServerSpec{{Capacity: 40}, {Capacity: 40}},
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
		Servers:  []ServerSpec{{Capacity: 100}},
		MaxQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.DropFraction(); f < 0.2 || f > 0.45 {
		t.Fatalf("drop fraction %v, want ≈1/3", f)
	}
}

func TestNonHomogeneousArrivals(t *testing.T) {
	// Rate ramps 20 → 80; early window must see fewer arrivals than late.
	res, err := Run(Config{
		Seed: 4, Duration: 200, Rate: 80,
		RateFn:  func(tt float64) float64 { return 20 + 60*tt/200 },
		Servers: []ServerSpec{{Capacity: 200}},
	})
	if err != nil {
		t.Fatal(err)
	}
	early := len(res.LatenciesBetween(0, 50)) + res.DropsBetween(0, 50)
	late := len(res.LatenciesBetween(150, 200)) + res.DropsBetween(150, 200)
	if late < 2*early {
		t.Fatalf("thinning broken: early %d late %d", early, late)
	}
}

func TestRevocationTransiencyAwareVsVanilla(t *testing.T) {
	mk := func(vanilla bool) *Result {
		res, err := Run(Config{
			Seed: 5, Duration: 480, Rate: 150, Sessions: 600,
			Servers: []ServerSpec{
				{Capacity: 25}, {Capacity: 25},
				{Capacity: 50}, {Capacity: 50}, {Capacity: 40}, {Capacity: 40},
			},
			Revocations: []Revocation{{
				At:      180,
				Servers: []int{2, 3, 4, 5},
				Replacements: []ServerSpec{
					{Capacity: 50}, {Capacity: 50}, {Capacity: 40}, {Capacity: 40},
				},
				ReplacementDelay: 60,
			}},
			Warning: 120,
			Vanilla: vanilla,
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
		Servers: []ServerSpec{
			{Capacity: 25}, {Capacity: 25},
			{Capacity: 50}, {Capacity: 50}, {Capacity: 40}, {Capacity: 40},
		},
		Revocations: []Revocation{{
			At: 180, Servers: []int{2, 3, 4, 5},
			Replacements:     []ServerSpec{{Capacity: 50}, {Capacity: 50}, {Capacity: 40}, {Capacity: 40}},
			ReplacementDelay: 60,
		}},
		Warning: 120,
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

func TestBootDelayGatesService(t *testing.T) {
	res, err := Run(Config{
		Seed: 7, Duration: 60, Rate: 50,
		Servers: []ServerSpec{{Capacity: 100, ReadyAt: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.DropsBetween(0, 29); d < 1000 {
		t.Fatalf("pre-boot drops = %d, want ≈all arrivals", d)
	}
	if s := len(res.LatenciesBetween(31, 60)); s < 1000 {
		t.Fatalf("post-boot served = %d", s)
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

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		res, err := Run(Config{
			Seed: 8, Duration: 60, Rate: 100,
			Servers: []ServerSpec{{Capacity: 80}, {Capacity: 80}},
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
		Servers: []ServerSpec{{Capacity: 60}, {Capacity: 60}, {Capacity: 40}, {Capacity: 40}, {Capacity: 20}},
		Revocations: []Revocation{{
			At: 60, Servers: []int{0, 1, 2},
			Replacements:     []ServerSpec{{Capacity: 60}, {Capacity: 60}},
			ReplacementDelay: 20,
		}},
		Warning: 30,
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
	}
}
