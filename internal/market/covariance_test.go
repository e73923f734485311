package market

import (
	"math"
	"math/rand"
	"reflect"
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

// checkOperator holds CovarianceOperator(t, window, win) to the operator the
// planner used to build, linalg.CompactRisk(CovarianceMatrix(t, window)): the
// same operator before first use (type, coupled and isolated lists, packed
// block, isolated diagonal, symmetry flag), the same coupled count, and the
// same stacked apply over h = 1..7 periods of signed inputs with −0 entries,
// bit for bit. win is the window buffer (nil: a fresh one); the dense view
// gathers one window at a time into a fresh buffer, so this also holds the
// eight-wide gather and a reused buffer to today's. It returns the coupled
// count.
func checkOperator(t *testing.T, label string, c *Catalog, tt, window int, win *linalg.Samples, rng *rand.Rand) int {
	t.Helper()
	n := c.Len()
	got, k := c.CovarianceOperator(tt, window, win)
	want, wantK := linalg.CompactRisk(c.CovarianceMatrix(tt, window))
	if k != wantK {
		t.Fatalf("%s t=%d w=%d: coupled %d, CompactRisk(CovarianceMatrix) %d", label, tt, window, k, wantK)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s t=%d w=%d: operator %T differs from CompactRisk(CovarianceMatrix)'s %T", label, tt, window, got, want)
	}
	for h := 1; h <= 7 && n > 0; h++ {
		x := linalg.NewVector(h * n)
		for i := range x {
			switch i % 4 {
			case 0:
				x[i] = math.Copysign(0, -1)
			default:
				x[i] = rng.NormFloat64()
			}
		}
		a, b := linalg.NewVector(h*n), linalg.NewVector(h*n)
		got.MulVecStacked(x, a, nil)
		want.MulVecStacked(x, b, nil)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s t=%d w=%d h=%d: output %d = %#x, want %#x", label, tt, window, h, i,
					math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
	return k
}

func TestBitIdenticalCovarianceOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	twins := CatalogConfig{Seed: 7, NumTypes: 144, IncludeOnDemand: true, Hours: 24 * 16}.Generate()
	// Every third market's series runs four samples longer: at t = 342 its
	// window lies inside its series while the others' run past theirs, so
	// eight-wide groups and single clamped windows interleave.
	mixed := patternCatalog(rng, 30, 340, func(i int) bool { return i%5 != 0 })
	for i, mk := range mixed.Markets {
		if mk.Transient && i%3 == 0 {
			mk.FailProb.Values = append(mk.FailProb.Values, 0.01, 0.13, 0.02, 0.07)
		}
	}
	// One buffer serves every case after its fresh build: it grows, shrinks,
	// crosses the lane threshold and changes stride.
	reused := new(linalg.Samples)
	for _, tc := range []struct {
		name    string
		cat     *Catalog
		t, w    int
		coupled int
	}{
		{"288 twins, two weeks", twins, 24 * 15, 24 * 14, 144},
		{"288 twins, w<2", twins, 1, 24 * 14, 0},
		{"288 twins, w=2", twins, 2, 24 * 14, 12},
		{"testbed", TestbedCatalog(3, 400), 350, 336, 3},
		{"zero variance", flatCatalog(12, 340), 338, 336, 0},
		{"fig5, k==n<8", Fig5Catalog(3, 400), 350, 336, 3},
		{"all spot, k==n lanes", patternCatalog(rng, 17, 340, func(int) bool { return true }), 338, 336, 17},
		{"all on-demand", patternCatalog(rng, 9, 340, func(int) bool { return false }), 338, 336, 0},
		{"interleaved, k<8", patternCatalog(rng, 9, 340, func(i int) bool { return i%2 == 0 }), 338, 336, 5},
		{"past the series", patternCatalog(rng, 20, 340, func(i int) bool { return i%3 != 0 }), 342, 5, 13},
		{"past some series", mixed, 342, 40, 24},
		{"k=8, twins", patternCatalog(rng, 16, 340, func(i int) bool { return i%2 == 1 }), 338, 100, 8},
		{"empty", &Catalog{StepHrs: 1, Intervals: 10}, 5, 3, 0},
	} {
		for _, win := range []*linalg.Samples{nil, reused} {
			if got := checkOperator(t, tc.name, tc.cat, tc.t, tc.w, win, rng); got != tc.coupled {
				t.Fatalf("%s: coupled %d, want %d", tc.name, got, tc.coupled)
			}
		}
	}
}

// flatCatalog is n transient markets whose failure probability is a constant
// 0.25 — exact in binary, so every centred sample is 0 and every market
// isolated — interleaved with on-demand twins.
func flatCatalog(n, intervals int) *Catalog {
	c := &Catalog{StepHrs: 1, Intervals: intervals}
	for i := 0; i < n; i++ {
		c.Markets = append(c.Markets, &Market{
			Type:      InstanceType{Name: "flat", Capacity: 100, OnDemandPrice: 1},
			Transient: i%2 == 0,
			Price:     trace.ConstantSeries("p", 1, intervals, 1),
			FailProb:  trace.ConstantSeries("f", 1, intervals, 0.25),
		})
	}
	return c
}

// FuzzCovarianceOperator builds a catalog from the input — n markets, a
// transient mask, a mask of transient markets whose series is constant (zero
// variance: isolated), series values and the window — and holds
// CovarianceOperator to CompactRisk(CovarianceMatrix) through checkOperator,
// with a fresh window buffer and then with one buffer reused across builds of
// varying (w, k): the whole catalog at the input's window, a shorter window,
// the catalog less its first markets, and the input's window again.
func FuzzCovarianceOperator(f *testing.F) {
	f.Add(uint8(12), uint16(0x0fff), uint16(0), uint8(30), uint8(20), []byte("k == n, a lane chunk and a half"))
	f.Add(uint8(18), uint16(0x0555), uint16(0x0100), uint8(30), uint8(29), []byte("on-demand twins, one flat spot"))
	f.Add(uint8(6), uint16(0x003f), uint16(0x003f), uint8(25), uint8(20), []byte{})
	f.Add(uint8(9), uint16(0x01ff), uint16(0), uint8(1), uint8(20), []byte("w < 2: the diagonal prior"))
	f.Add(uint8(4), uint16(0x000a), uint16(0), uint8(40), uint8(12), []byte{0x80, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, n uint8, spot, flat uint16, tt, window uint8, data []byte) {
		nn := int(n) % 19
		const intervals = 32
		pos := 0
		next := func() float64 {
			if pos >= len(data) {
				pos++
				return float64(pos%7) / 16
			}
			pos++
			return float64(data[pos-1]) / 512
		}
		c := &Catalog{StepHrs: 1, Intervals: intervals}
		for i := 0; i < nn; i++ {
			mk := &Market{
				Type:      InstanceType{Name: "f", Capacity: 100, OnDemandPrice: 1},
				Transient: i >= 16 || spot&(1<<i) != 0,
				Price:     &trace.Series{StepHrs: 1, Values: make([]float64, intervals)},
			}
			if mk.Transient {
				vals := make([]float64, intervals)
				v := next()
				for k := range vals {
					if i >= 16 || flat&(1<<i) == 0 {
						v = next()
					}
					vals[k] = v
				}
				mk.FailProb = &trace.Series{StepHrs: 1, Values: vals}
			}
			c.Markets = append(c.Markets, mk)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		ti, wi := int(tt)%(intervals+4), int(window)%(intervals+3)-1
		checkOperator(t, "fuzz", c, ti, wi, nil, rng)
		reused := new(linalg.Samples)
		tail := &Catalog{StepHrs: 1, Intervals: intervals, Markets: c.Markets[min(len(c.Markets), int(spot%5)):]}
		for _, b := range []struct {
			c     *Catalog
			t, w  int
			label string
		}{{c, ti, wi, "reused"}, {c, ti, wi / 2, "reused, shorter"}, {tail, ti, wi, "reused, fewer markets"}, {c, ti, wi, "reused again"}} {
			checkOperator(t, b.label, b.c, b.t, b.w, reused, rng)
		}
	})
}
