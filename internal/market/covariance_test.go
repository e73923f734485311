package market

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
	"repro/internal/trace"
)

// pairwiseCovariance is the oracle Catalog.CovarianceMatrix must match bit
// for bit: every market's window read through FailProbAt (on-demand markets
// included, as zeros) and every pair passed to the scalar stats.Covariance.
func pairwiseCovariance(c *Catalog, t, window int) *linalg.Matrix {
	n := c.Len()
	lo := t - window
	if lo < 0 {
		lo = 0
	}
	m := linalg.NewMatrix(n, n)
	if t <= lo+1 {
		for i, mk := range c.Markets {
			f := mk.FailProbAt(t)
			m.Set(i, i, f*f+1e-6)
		}
		return m
	}
	series := make([][]float64, n)
	for i, mk := range c.Markets {
		series[i] = make([]float64, t-lo)
		for k := lo; k < t; k++ {
			series[i][k-lo] = mk.FailProbAt(k)
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := stats.Covariance(series[i], series[j])
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	m.AddDiag(1e-6)
	return m
}

// patternCatalog builds n markets over `intervals` samples; transient(i)
// picks which are revocable. On-demand markets carry no FailProb series.
func patternCatalog(rng *rand.Rand, n, intervals int, transient func(i int) bool) *Catalog {
	c := &Catalog{StepHrs: 1, Intervals: intervals}
	for i := 0; i < n; i++ {
		mk := &Market{
			Type:      InstanceType{Name: "t", Capacity: 100, OnDemandPrice: 1},
			Transient: transient(i),
			Price:     &trace.Series{StepHrs: 1, Values: make([]float64, intervals)},
		}
		if mk.Transient {
			f := make([]float64, intervals)
			for k := range f {
				f[k] = 0.2 * rng.Float64()
			}
			mk.FailProb = &trace.Series{StepHrs: 1, Values: f}
		}
		c.Markets = append(c.Markets, mk)
	}
	return c
}

func assertSameBits(t *testing.T, label string, got, want *linalg.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("%s: entry (%d,%d): got %x want %x", label, k/want.Cols, k%want.Cols,
				math.Float64bits(got.Data[k]), math.Float64bits(want.Data[k]))
		}
	}
}

func TestBitIdenticalCatalogCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	patterns := map[string]func(i int) bool{
		"interleaved":   func(i int) bool { return i%2 == 0 },
		"all-on-demand": func(int) bool { return false },
		"no-on-demand":  func(int) bool { return true },
	}
	const intervals = 340
	for name, transient := range patterns {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 288} {
			c := patternCatalog(rng, n, intervals, transient)
			// Windows 2, 3 and 336, the diagonal-prior fallback (t = 1) and two
			// windows reaching past the final interval — wholly and in their
			// tail — which take the clamped gather instead of the copy.
			for _, tw := range [][2]int{{338, 2}, {338, 3}, {338, 336}, {1, 336}, {intervals + 2, 5}, {intervals + 2, 336}} {
				got := c.CovarianceMatrix(tw[0], tw[1])
				assertSameBits(t, name, got, pairwiseCovariance(c, tw[0], tw[1]))
			}
		}
	}
	// A generated catalog: on-demand twins interleaved with correlated spots.
	c := CatalogConfig{Seed: 5, NumTypes: 12, IncludeOnDemand: true, Hours: 24 * 16}.Generate()
	assertSameBits(t, "generated", c.CovarianceMatrix(24*15, 24*14), pairwiseCovariance(c, 24*15, 24*14))
}

// TwoWeekWindow must count intervals, not hours: at 15-minute sampling 14
// days are 1,344 intervals (FreezeWeights once hard-coded 336).
func TestTwoWeekWindow(t *testing.T) {
	for _, c := range []struct {
		step float64
		want int
	}{{1, 336}, {0.5, 672}, {0.25, 1344}} {
		if got := (&Catalog{StepHrs: c.step}).TwoWeekWindow(); got != c.want {
			t.Fatalf("StepHrs %v: window %d, want %d", c.step, got, c.want)
		}
	}
}
