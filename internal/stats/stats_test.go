package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased sample variance of this classic set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/degenerate cases should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("singleton quantile = %v", got)
	}
	qs := Quantiles(xs, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 2.5 || qs[2] != 4 {
		t.Fatalf("Quantiles = %v", qs)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
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

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 || s.Mean != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.9, 10, 11} {
		h.Observe(x)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("Under/Over = %d/%d", h.Under, h.Over)
	}
	if h.total != 8 {
		t.Fatalf("total = %d", h.total)
	}
	// x == Hi lands in the last bin.
	if h.Counts[4] != 2 { // 9.9 and 10
		t.Fatalf("last bin = %d, counts %v", h.Counts[4], h.Counts)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("first bin = %d", h.Counts[0])
	}
	centers := h.BinCenters()
	if centers[0] != 1 || centers[4] != 9 {
		t.Fatalf("centers = %v", centers)
	}
	d := Densities(h)
	var sum float64
	for _, x := range d {
		sum += x
	}
	if sum >= 1 || sum < 0.74 { // 6 of 8 samples in range
		t.Fatalf("density sum = %v", sum)
	}
}

// Densities wrapper so test reads naturally.
func Densities(h *Histogram) []float64 { return h.Densities() }

func TestNormalFitAndPDF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	f := FitNormal(xs)
	if math.Abs(f.Mu-3) > 0.1 || math.Abs(f.Sigma-2) > 0.1 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestZQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.995:  2.575829,
		0.99:   2.326348,
		0.025:  -1.959964,
		0.0001: -3.719016,
	}
	for p, want := range cases {
		if got := ZQuantile(p); math.Abs(got-want) > 1e-5 {
			t.Fatalf("ZQuantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestZQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ZQuantile(0)
}

func TestErrorMetrics(t *testing.T) {
	pred := []float64{110, 90, 100}
	act := []float64{100, 100, 100}
	if got := MAPE(pred, act); math.Abs(got-0.2/3.0*1) > 1e-9 && math.Abs(got-(0.1+0.1+0)/3) > 1e-12 {
		t.Fatalf("MAPE = %v", got)
	}
	re := RelativeErrors(pred, act)
	if len(re) != 3 || math.Abs(re[0]-0.1) > 1e-12 || math.Abs(re[1]+0.1) > 1e-12 {
		t.Fatalf("RelativeErrors = %v", re)
	}
	// Zero actuals are skipped.
	if got := RelativeErrors([]float64{1}, []float64{0}); len(got) != 0 {
		t.Fatalf("expected skip, got %v", got)
	}
	if MAPE([]float64{1}, []float64{0}) != 0 {
		t.Fatal("MAPE all-zero actuals should be 0")
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Correlation(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Correlation = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(x, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Correlation = %v, want -1", got)
	}
	if Correlation(x, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("correlation with constant should be 0")
	}
	if Covariance(x, y) != Covariance(y, x) {
		t.Fatal("covariance not symmetric")
	}
	if Covariance(x, x) <= 0 || Covariance(y, y) <= 0 {
		t.Fatal("variance must be positive for non-constant series")
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v := Quantile(xs, qq)
			if v < prev-1e-12 {
				t.Fatalf("quantile not monotone at q=%v", qq)
			}
			prev = v
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if Quantile(xs, 0) != sorted[0] || Quantile(xs, 1) != sorted[n-1] {
			t.Fatal("extremes mismatch")
		}
	}
}

// Property: ZQuantile is odd around p=0.5 and strictly increasing.
func TestZQuantileProperties(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.49)
		if p == 0 {
			p = 0.1
		}
		lo, hi := ZQuantile(0.5-p), ZQuantile(0.5+p)
		return math.Abs(lo+hi) < 1e-6 && hi > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
