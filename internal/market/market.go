// Package market models cloud server markets: instance types offered as
// on-demand (fixed price, non-revocable) and transient (discounted,
// revocable) servers, each with a price series and a revocation-probability
// series. It provides the per-request cost C_t^i = price_t^i / r_i the
// SpotWeb optimizer consumes, covariance estimation of revocation dynamics
// (the matrix M of Eq. 5), and synthetic catalog generation that scales to
// hundreds of markets.
package market

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/stats"
	"repro/internal/trace"
)

// InstanceType describes a server hardware configuration.
type InstanceType struct {
	Name          string
	VCPUs         int
	MemGiB        float64
	Capacity      float64 // requests/second served with no SLO violations (r_i)
	OnDemandPrice float64 // $/hr
}

// Market is one purchasable configuration: an instance type offered either
// on-demand or as a transient (spot) server. Each transient market has its
// own price and revocation-probability dynamics.
type Market struct {
	Type      InstanceType
	Transient bool
	// Price is the $/hr price series; constant for on-demand markets.
	Price *trace.Series
	// FailProb is the per-interval revocation probability; all-zero for
	// on-demand markets.
	FailProb *trace.Series
	// Group identifies the demand pool this market belongs to; markets in
	// the same group see correlated revocation surges.
	Group int
}

// ID returns a stable display identifier like "m4.xlarge/spot".
func (m *Market) ID() string {
	kind := "od"
	if m.Transient {
		kind = "spot"
	}
	return m.Type.Name + "/" + kind
}

// PriceAt returns the $/hr price at interval t (clamped to the series).
func (m *Market) PriceAt(t int) float64 {
	return m.Price.Values[clampIndex(t, m.Price.Len())]
}

// FailProbAt returns the revocation probability for interval t.
func (m *Market) FailProbAt(t int) float64 {
	if !m.Transient {
		return 0
	}
	return m.FailProb.Values[clampIndex(t, m.FailProb.Len())]
}

// PerRequestCostAt returns C_t^i = price_t^i / r_i, the price adjusted for
// the server's ability to serve requests ($/hr per unit of req/s capacity).
func (m *Market) PerRequestCostAt(t int) float64 {
	return m.PriceAt(t) / m.Type.Capacity
}

func clampIndex(t, n int) int {
	if t < 0 {
		return 0
	}
	if t >= n {
		return n - 1
	}
	return t
}

// Catalog is the set of markets an application may provision from.
type Catalog struct {
	Markets []*Market
	// StepHrs is the sampling interval shared by all series.
	StepHrs float64
	// Intervals is the number of samples in every series.
	Intervals int
}

// Len returns the number of markets (N in the paper; N = 2S when every type
// is offered both on-demand and transient).
func (c *Catalog) Len() int { return len(c.Markets) }

// Validate checks internal consistency.
func (c *Catalog) Validate() error {
	if len(c.Markets) == 0 {
		return fmt.Errorf("market: empty catalog")
	}
	for _, m := range c.Markets {
		if m.Type.Capacity <= 0 {
			return fmt.Errorf("market %s: nonpositive capacity", m.ID())
		}
		if m.Price == nil || m.Price.Len() != c.Intervals {
			return fmt.Errorf("market %s: price series length mismatch", m.ID())
		}
		if m.Transient && (m.FailProb == nil || m.FailProb.Len() != c.Intervals) {
			return fmt.Errorf("market %s: failure series length mismatch", m.ID())
		}
	}
	return nil
}

// PerRequestCosts returns the C_t vector across markets at interval t.
func (c *Catalog) PerRequestCosts(t int) linalg.Vector {
	out := linalg.NewVector(c.Len())
	for i, m := range c.Markets {
		out[i] = m.PerRequestCostAt(t)
	}
	return out
}

// FailProbs returns the f_t vector across markets at interval t.
func (c *Catalog) FailProbs(t int) linalg.Vector {
	out := linalg.NewVector(c.Len())
	for i, m := range c.Markets {
		out[i] = m.FailProbAt(t)
	}
	return out
}

// TwoWeekWindow returns 14 days expressed in catalog intervals — the paper's
// training window and the default trailing window for CovarianceMatrix.
func (c *Catalog) TwoWeekWindow() int { return int(14 * 24 / c.StepHrs) }

// failWindows gathers, one row per market in idx, the failure-probability
// series over the trailing window [t-window, t). An on-demand market's row is
// exactly zero. It returns nil when the window holds fewer than two samples.
func (c *Catalog) failWindows(idx []int, t, window int) *linalg.Matrix {
	lo := max(t-window, 0)
	if t-lo < 2 {
		return nil
	}
	x := linalg.NewMatrix(len(idx), t-lo)
	for r, i := range idx {
		mk := c.Markets[i]
		if !mk.Transient {
			continue
		}
		row, vals := x.Row(r), mk.FailProb.Values
		if t <= len(vals) {
			copy(row, vals[lo:t])
			continue
		}
		for k := range row { // the window runs past the series: clamped reads
			row[k] = vals[clampIndex(lo+k, len(vals))]
		}
	}
	return x
}

// diagonalPrior is the covariance estimators' not-enough-history fallback:
// the squared current failure probability plus the ridge.
func (c *Catalog) diagonalPrior(t int) linalg.Vector {
	d := linalg.NewVector(c.Len())
	for i, mk := range c.Markets {
		f := mk.FailProbAt(t)
		d[i] = f*f + 1e-6
	}
	return d
}

// CovarianceMatrix estimates M, the pairwise covariance of revocation
// dynamics, from the failure-probability series over the trailing window
// [t-window, t). A small ridge is added to the diagonal so M is strictly
// positive definite (required by the quadratic risk term). On-demand markets
// contribute zero rows/columns apart from the ridge: their series is
// identically 0, so only the transient markets' windows are gathered and
// their covariance block is scattered into the dense result.
func (c *Catalog) CovarianceMatrix(t, window int) *linalg.Matrix {
	n := c.Len()
	idx := make([]int, 0, n)
	for i, mk := range c.Markets {
		if mk.Transient {
			idx = append(idx, i)
		}
	}
	x := c.failWindows(idx, t, window)
	if x == nil {
		m := linalg.NewMatrix(n, n)
		for i, d := range c.diagonalPrior(t) {
			m.Set(i, i, d)
		}
		return m
	}
	series := make([][]float64, len(idx))
	for r := range series {
		series[r] = x.Row(r)
	}
	block, k := stats.CovarianceMatrix(series)
	m := &linalg.Matrix{Rows: k, Cols: k, Data: block}
	if k < n {
		m = linalg.NewMatrix(n, n)
		for a, i := range idx {
			for b, j := range idx {
				m.Set(i, j, block[a*k+b])
			}
		}
	}
	m.AddDiag(1e-6)
	return m
}

// CheapestTransient returns the index of the transient market with the
// lowest per-request cost at interval t, or -1 if the catalog has none.
func (c *Catalog) CheapestTransient(t int) int {
	best, bestCost := -1, 0.0
	for i, m := range c.Markets {
		if !m.Transient {
			continue
		}
		cost := m.PerRequestCostAt(t)
		if best == -1 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}
