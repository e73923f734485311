package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestWikipediaLikeShape(t *testing.T) {
	s := WikipediaLike(1).Generate()
	if s.Len() != 21*24 {
		t.Fatalf("len = %d, want %d", s.Len(), 21*24)
	}
	if h := float64(s.Len()) * s.StepHrs; h != 21*24 {
		t.Fatalf("hours = %v", h)
	}
	for i, v := range s.Values {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("negative/NaN rate at %d: %v", i, v)
		}
	}
	// Strong diurnal pattern: peak-hour mean well above trough-hour mean.
	var peak, trough []float64
	for i, v := range s.Values {
		switch i % 24 {
		case 20:
			peak = append(peak, v)
		case 4:
			trough = append(trough, v)
		}
	}
	if stats.Mean(peak) < 1.5*stats.Mean(trough) {
		t.Fatalf("diurnal contrast too weak: peak %v vs trough %v",
			stats.Mean(peak), stats.Mean(trough))
	}
}

func TestVoDLikeIsSpikier(t *testing.T) {
	wiki := WikipediaLike(2).Generate()
	vod := VoDLike(2).Generate()
	// Normalized p99/median ratio should be clearly larger for VoD.
	ratio := func(s *Series) float64 {
		qs := stats.Quantiles(s.Values, 0.5, 0.99)
		return qs[1] / qs[0]
	}
	if ratio(vod) <= ratio(wiki) {
		t.Fatalf("VoD trace should be spikier: vod %v vs wiki %v", ratio(vod), ratio(wiki))
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := WikipediaLike(7).Generate()
	b := WikipediaLike(7).Generate()
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("same seed must reproduce the same trace")
		}
	}
	c := WikipediaLike(8).Generate()
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid config")
		}
	}()
	WorkloadConfig{Days: 0}.Generate()
}

func TestSeriesSliceClone(t *testing.T) {
	s := WikipediaLike(3).Generate()
	sub := s.Slice(10, 20)
	if sub.Len() != 10 || sub.At(0) != s.At(10) {
		t.Fatalf("Slice broken")
	}
	c := s.Clone()
	c.Values[0] = -1
	if s.Values[0] == -1 {
		t.Fatal("Clone aliases")
	}
}

func TestPriceProcess(t *testing.T) {
	cfg := PriceConfig{
		Seed: 4, OnDemandPrice: 1.0, MeanDiscount: 0.3, Volatility: 0.08,
		Reversion: 0.05, JumpsPerWeek: 2, JumpMagnitude: 0.8,
		Hours: 24 * 28, SamplesPerHour: 1,
	}
	s := cfg.Generate()
	if s.Len() != 24*28 {
		t.Fatalf("len = %d", s.Len())
	}
	for i, p := range s.Values {
		if p <= 0 || p > 1.0+1e-12 {
			t.Fatalf("price out of range at %d: %v", i, p)
		}
	}
	m := stats.Mean(s.Values)
	if m < 0.15 || m > 0.6 {
		t.Fatalf("mean price %v should hover near the 0.3 discount level", m)
	}
	// Some variability is required for the cheapest-market crossings.
	if stats.StdDev(s.Values) < 0.005 {
		t.Fatalf("price process unexpectedly flat: std %v", stats.StdDev(s.Values))
	}
}

func TestFailureProcess(t *testing.T) {
	cfg := FailureConfig{
		Seed: 5, BaseProb: 0.05, DriftsPerWeek: 2, SurgeProb: 0.1, SurgesPerWeek: 1,
		Hours: 24 * 60, SamplesPerHour: 1,
	}
	s := cfg.Generate()
	for i, p := range s.Values {
		if p < 0 || p > 0.5 {
			t.Fatalf("failure prob out of range at %d: %v", i, p)
		}
	}
	m := stats.Mean(s.Values)
	if m < 0.01 || m > 0.3 {
		t.Fatalf("mean failure prob %v implausible", m)
	}
}

// TestMarketProcessesRepeatOnPooledGenerators: the price and failure
// processes draw from pooled generators, re-seeded per call. Interleaving
// them — so each call takes a generator the other kind just advanced — must
// not change a bit of either series.
func TestMarketProcessesRepeatOnPooledGenerators(t *testing.T) {
	price := PriceConfig{Seed: 4, OnDemandPrice: 1, MeanDiscount: 0.3, Volatility: 0.08,
		Reversion: 0.05, JumpsPerWeek: 2, JumpMagnitude: 0.8, Hours: 24 * 7, SamplesPerHour: 2}
	fail := FailureConfig{Seed: 5, BaseProb: 0.05, DriftsPerWeek: 2, SurgeProb: 0.1, SurgesPerWeek: 1,
		Hours: 24 * 7, SamplesPerHour: 2}
	p0, f0 := price.Generate(), fail.Generate()
	for round := 0; round < 3; round++ {
		f1, p1 := fail.Generate(), price.Generate()
		for i := range p0.Values {
			if math.Float64bits(p1.Values[i]) != math.Float64bits(p0.Values[i]) ||
				math.Float64bits(f1.Values[i]) != math.Float64bits(f0.Values[i]) {
				t.Fatalf("round %d sample %d: price %v/%v, failure %v/%v", round, i,
					p1.Values[i], p0.Values[i], f1.Values[i], f0.Values[i])
			}
		}
	}
}

func TestConstantSeries(t *testing.T) {
	s := ConstantSeries("od", 1, 5, 2.5)
	for _, v := range s.Values {
		if v != 2.5 {
			t.Fatalf("constant broken: %v", s.Values)
		}
	}
}

func TestEmptyProcessPanics(t *testing.T) {
	for _, f := range []func(){
		func() { PriceConfig{}.Generate() },
		func() { FailureConfig{}.Generate() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCSVRoundTrip(t *testing.T) {
	w := WikipediaLike(6)
	w.Days = 2
	s1 := w.Generate()
	s2 := s1.Clone()
	s2.Name = "copy"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s1, s2); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "workload" || back[1].Name != "copy" {
		t.Fatalf("names = %v, %v", back[0].Name, back[1].Name)
	}
	if back[0].StepHrs != s1.StepHrs || back[0].Len() != s1.Len() {
		t.Fatalf("shape mismatch: %v/%d", back[0].StepHrs, back[0].Len())
	}
	for i := range s1.Values {
		if math.Abs(back[0].Values[i]-s1.Values[i]) > 1e-9 {
			t.Fatalf("value mismatch at %d", i)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf); err == nil {
		t.Fatal("expected error on no series")
	}
	a := ConstantSeries("a", 1, 3, 1)
	b := ConstantSeries("b", 1, 4, 1)
	if err := WriteCSV(&buf, a, b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if _, err := ReadCSV(strings.NewReader("hours,a\n")); err == nil {
		t.Fatal("expected error on empty body")
	}
	if _, err := ReadCSV(strings.NewReader("time,a\n0,1\n1,2\n")); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := ReadCSV(strings.NewReader("hours,a\n0,xyz\n1,2\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadCSV(strings.NewReader("hours,a\n1,1\n0,2\n")); err == nil {
		t.Fatal("expected non-increasing time error")
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 3)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("poisson mean = %v, want ≈3", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("nonpositive lambda should yield 0")
	}
}
