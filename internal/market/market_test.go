package market

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/trace"
)

func smallCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := CatalogConfig{Seed: 1, NumTypes: 6, IncludeOnDemand: true, Hours: 24 * 10}.Generate()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperType(t *testing.T) {
	it := paperTypes["r5d.24xlarge"]
	if it.Capacity != 1920 {
		t.Fatalf("r5d.24xlarge capacity = %v, want 1920 (paper §6.3)", it.Capacity)
	}
	// x1e.16xlarge per-request cost is the paper's 0.01 $/hr-per-req/s anchor.
	x := paperTypes["x1e.16xlarge"]
	if c := x.OnDemandPrice / x.Capacity; math.Abs(c-0.01) > 1e-3 {
		t.Fatalf("x1e.16xlarge per-request cost = %v, want ≈0.01", c)
	}
}

func TestCatalogGeneration(t *testing.T) {
	c := smallCatalog(t)
	if c.Len() != 12 { // 6 types × (spot + on-demand)
		t.Fatalf("catalog has %d markets, want 12", c.Len())
	}
	spot, od := 0, 0
	for _, m := range c.Markets {
		if m.Transient {
			spot++
			if m.FailProbAt(0) <= 0 {
				t.Fatalf("%s: transient market must have positive failure prob", m.ID())
			}
		} else {
			od++
			if m.FailProbAt(5) != 0 {
				t.Fatalf("%s: on-demand market must have zero failure prob", m.ID())
			}
			if m.PriceAt(0) != m.PriceAt(100) {
				t.Fatalf("%s: on-demand price must be constant", m.ID())
			}
		}
	}
	if spot != 6 || od != 6 {
		t.Fatalf("spot/od = %d/%d", spot, od)
	}
}

func TestSpotCheaperThanOnDemand(t *testing.T) {
	c := smallCatalog(t)
	for _, m := range c.Markets {
		if !m.Transient {
			continue
		}
		for k := 0; k < c.Intervals; k += 13 {
			if m.PriceAt(k) > m.Type.OnDemandPrice+1e-9 {
				t.Fatalf("%s: spot price %v exceeds on-demand %v at %d",
					m.ID(), m.PriceAt(k), m.Type.OnDemandPrice, k)
			}
		}
	}
}

func TestPerRequestCost(t *testing.T) {
	c := smallCatalog(t)
	m := c.Markets[0]
	want := m.PriceAt(3) / m.Type.Capacity
	if got := m.PerRequestCostAt(3); got != want {
		t.Fatalf("PerRequestCostAt = %v, want %v", got, want)
	}
	costs := c.PerRequestCosts(3)
	if len(costs) != c.Len() || costs[0] != want {
		t.Fatalf("PerRequestCosts broken")
	}
}

func TestClampIndex(t *testing.T) {
	c := smallCatalog(t)
	m := c.Markets[0]
	if m.PriceAt(-5) != m.PriceAt(0) {
		t.Fatal("negative index should clamp to 0")
	}
	if m.PriceAt(c.Intervals+100) != m.PriceAt(c.Intervals-1) {
		t.Fatal("overflow index should clamp to end")
	}
}

func TestFailProbs(t *testing.T) {
	c := smallCatalog(t)
	f := c.FailProbs(10)
	for i, m := range c.Markets {
		if m.Transient && f[i] <= 0 {
			t.Fatalf("transient market %s has f=0", m.ID())
		}
		if !m.Transient && f[i] != 0 {
			t.Fatalf("on-demand market %s has f=%v", m.ID(), f[i])
		}
	}
}

func TestCovarianceMatrix(t *testing.T) {
	c := smallCatalog(t)
	m := c.CovarianceMatrix(200, 150)
	if m.Rows != c.Len() {
		t.Fatalf("covariance shape broken")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > 1e-12 {
				t.Fatalf("covariance not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Must be positive definite thanks to the ridge.
	if _, err := linalg.Cholesky(m); err != nil {
		t.Fatalf("covariance not PD: %v", err)
	}
	// Same-group transient markets should correlate more than the ridge
	// alone: find two spot markets in the same group.
	var a, b = -1, -1
	for i, mi := range c.Markets {
		if !mi.Transient {
			continue
		}
		for j := i + 1; j < c.Len(); j++ {
			if c.Markets[j].Transient && c.Markets[j].Group == mi.Group {
				a, b = i, j
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	if a >= 0 {
		if m.At(a, b) <= 0 {
			t.Logf("note: same-group covariance %v not positive (surges may not overlap in window)", m.At(a, b))
		}
	}
}

func TestCovarianceFallbackShortHistory(t *testing.T) {
	c := smallCatalog(t)
	m := c.CovarianceMatrix(0, 100)
	if m.Rows != c.Len() {
		t.Fatal("fallback shape wrong")
	}
	if _, err := linalg.Cholesky(m); err != nil {
		t.Fatalf("fallback covariance not PD: %v", err)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i != j && m.At(i, j) != 0 {
				t.Fatal("fallback must be diagonal")
			}
		}
	}
}

func TestCheapestTransient(t *testing.T) {
	c := smallCatalog(t)
	i := c.CheapestTransient(50)
	if i < 0 || !c.Markets[i].Transient {
		t.Fatalf("CheapestTransient = %d", i)
	}
	want := c.Markets[i].PerRequestCostAt(50)
	for _, m := range c.Markets {
		if m.Transient && m.PerRequestCostAt(50) < want-1e-15 {
			t.Fatal("not the cheapest")
		}
	}
	empty := &Catalog{StepHrs: 1, Intervals: 1}
	if empty.CheapestTransient(0) != -1 {
		t.Fatal("empty catalog should return -1")
	}
}

func TestValidateErrors(t *testing.T) {
	empty := &Catalog{}
	if empty.Validate() == nil {
		t.Fatal("empty catalog should fail validation")
	}
	c := smallCatalog(t)
	c.Markets[0].Type.Capacity = 0
	if c.Validate() == nil {
		t.Fatal("zero capacity should fail validation")
	}
	c = smallCatalog(t)
	c.Markets[0].Price = trace.ConstantSeries("x", 1, 3, 1)
	if c.Validate() == nil {
		t.Fatal("length mismatch should fail validation")
	}
}

func TestFig5Catalog(t *testing.T) {
	c := Fig5Catalog(9, 72)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	// The cheapest market must change over time (the paper's Fig. 5(a)
	// premise: "the cheapest market changes with time").
	first := c.CheapestTransient(0)
	changed := false
	for k := 1; k < 72; k++ {
		if c.CheapestTransient(k) != first {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("cheapest market never changes; Fig 5 premise broken")
	}
	for _, m := range c.Markets {
		if f := m.FailProbAt(10); f >= 0.05+1e-9 {
			t.Fatalf("Fig5 failure prob %v should be < 5%%", f)
		}
	}
}

func TestTestbedCatalog(t *testing.T) {
	c := TestbedCatalog(1, 4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	names := map[string]bool{}
	for _, m := range c.Markets {
		names[m.Type.Name] = true
	}
	for _, want := range []string{"m4.xlarge", "m4.2xlarge", "m2.4xlarge"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestCatalogDeterminism(t *testing.T) {
	a := CatalogConfig{Seed: 5, NumTypes: 4, Hours: 48}.Generate()
	b := CatalogConfig{Seed: 5, NumTypes: 4, Hours: 48}.Generate()
	for i := range a.Markets {
		for k := 0; k < a.Intervals; k++ {
			if a.Markets[i].PriceAt(k) != b.Markets[i].PriceAt(k) {
				t.Fatal("catalog generation must be deterministic per seed")
			}
		}
	}
}

func TestCatalogScalesToHundreds(t *testing.T) {
	c := CatalogConfig{Seed: 2, NumTypes: 150, Hours: 48}.Generate()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 150 {
		t.Fatalf("len = %d", c.Len())
	}
	// Names should be unique enough for display: at minimum non-empty.
	for _, m := range c.Markets {
		if m.Type.Name == "" || m.Type.Capacity <= 0 {
			t.Fatalf("bad market %+v", m.Type)
		}
	}
}
