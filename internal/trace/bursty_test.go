package trace

import (
	"testing"

	"repro/internal/stats"
)

func TestBurstyGenerate(t *testing.T) {
	s := BurstyDefault(1).Generate()
	if s.Len() != 21*24 {
		t.Fatalf("len = %d", s.Len())
	}
	for i, v := range s.Values {
		if v < 0 {
			t.Fatalf("negative rate at %d", i)
		}
	}
	m := stats.Mean(s.Values)
	if m < 1500 || m > 8000 {
		t.Fatalf("mean %v implausible for base 2000 with regimes", m)
	}
}

func TestBurstyIsBurstierThanSmooth(t *testing.T) {
	bursty := BurstyDefault(2).Generate()
	smooth := WikipediaLike(2).Generate()
	// Normalize scale by comparing the index of dispersion of the
	// mean-normalized series.
	norm := func(s *Series) *Series {
		out := s.Clone()
		m := stats.Mean(out.Values)
		for i := range out.Values {
			out.Values[i] /= m / 1000 // rescale to comparable mean
		}
		return out
	}
	ib := indexOfDispersion(norm(bursty), 6)
	is := indexOfDispersion(norm(smooth), 6)
	if ib <= is {
		t.Fatalf("bursty IDC %v should exceed smooth IDC %v", ib, is)
	}
}

func TestBurstyRegimeSwitchesHappen(t *testing.T) {
	cfg := BurstyDefault(3)
	cfg.NoiseStdDev = 0 // isolate regime structure
	s := cfg.Generate()
	// With sojourn ≈ 5 h over 21 days, the level must jump by ≥ 50%
	// between adjacent samples at least a handful of times.
	jumps := 0
	for i := 1; i < s.Len(); i++ {
		a, b := s.Values[i-1], s.Values[i]
		if a > 0 && (b/a > 1.45 || a/b > 1.45) {
			jumps++
		}
	}
	if jumps < 10 {
		t.Fatalf("only %d regime jumps observed", jumps)
	}
}

func TestBurstyDeterminism(t *testing.T) {
	a := BurstyDefault(4).Generate()
	b := BurstyDefault(4).Generate()
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("bursty generation must be deterministic per seed")
		}
	}
}

func TestBurstyPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BurstyConfig{Days: 1, SamplesPerHour: 1, BaseRate: 10}.Generate() // no regimes
}

// indexOfDispersion returns the variance-to-mean ratio of the series' sums
// over disjoint windows of the given length — the standard burstiness
// measure (≈ 1 for Poisson-like arrivals, ≫ 1 for bursty ones).
func indexOfDispersion(s *Series, window int) float64 {
	var sums []float64
	for i := 0; i+window <= s.Len(); i += window {
		var sum float64
		for _, v := range s.Values[i : i+window] {
			sum += v
		}
		sums = append(sums, sum)
	}
	return stats.Variance(sums) / stats.Mean(sums)
}
