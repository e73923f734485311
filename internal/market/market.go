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

// failWindow returns market mk's failure-probability series over the window
// [lo, t): the series itself when it reaches t, otherwise clamped reads into
// buf (length t−lo). mk must be transient.
func failWindow(mk *Market, lo, t int, buf []float64) []float64 {
	vals := mk.FailProb.Values
	if t <= len(vals) {
		return vals[lo:t]
	}
	for k := range buf { // the window runs past the series: clamped reads
		buf[k] = vals[clampIndex(lo+k, len(vals))]
	}
	return buf
}

// covRidge is the ridge every covariance estimate adds to its diagonal, so M
// is strictly positive definite (required by the quadratic risk term).
const covRidge = 1e-6

// covarianceBlock estimates the covariance of revocation dynamics over the
// transient markets idx (ascending) from the failure-probability series over
// the trailing window [t-window, t), plus the ridge on its diagonal: the
// only part of M that is not zero off the diagonal, since an on-demand
// market's series is identically 0. Each window is gathered straight from the
// series into win — reset to the window's shape, a fresh one when win is nil
// — centred on its stats.Mean, so every entry equals stats.Covariance of the
// two windows bit for bit. Eight windows that lie inside their series go per
// pass (gatherEight), the rest one at a time. A nil block means fewer than two
// samples: M is the diagonal prior.
func (c *Catalog) covarianceBlock(t, window int, win *linalg.Samples) (idx []int, block *linalg.Matrix) {
	lo := max(t-window, 0)
	w := t - lo
	if w < 2 {
		return nil, nil
	}
	idx = make([]int, 0, c.Len())
	for i, mk := range c.Markets {
		if mk.Transient {
			idx = append(idx, i)
		}
	}
	if win == nil {
		win = new(linalg.Samples)
	}
	win.Reset(w, len(idx))
	var buf []float64 // clamped reads of a window past its series, made once needed
	for r := 0; r < len(idx); {
		if r+8 <= len(idx) && c.gatherEight(win, r, idx[r:r+8], lo, t) {
			r += 8
			continue
		}
		mk := c.Markets[idx[r]]
		if buf == nil && t > len(mk.FailProb.Values) {
			buf = make([]float64, w)
		}
		vals := failWindow(mk, lo, t, buf)
		win.SetCentred(r, vals, stats.Mean(vals))
		r++
	}
	block = win.Covariance()
	block.AddDiag(covRidge)
	return idx, block
}

// gatherEight stores the windows [lo, t) of the eight markets idx as series
// r … r+7 of win and reports true, or reports false without storing anything
// when one of the windows runs past its series. The eight means are summed
// side by side, each in its own accumulator in index order from +0 and then
// divided by the window's length — stats.Mean of each window bit for bit —
// and win takes each sample's eight centred values in one write.
func (c *Catalog) gatherEight(win *linalg.Samples, r int, idx []int, lo, t int) bool {
	var wins [8][]float64
	for l, i := range idx[:8] {
		vals := c.Markets[i].FailProb.Values
		if t > len(vals) {
			return false
		}
		wins[l] = vals[lo:t]
	}
	w0 := wins[0]
	w1, w2, w3 := wins[1][:len(w0)], wins[2][:len(w0)], wins[3][:len(w0)]
	w4, w5, w6, w7 := wins[4][:len(w0)], wins[5][:len(w0)], wins[6][:len(w0)], wins[7][:len(w0)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for s, v := range w0 {
		s0 += v
		s1 += w1[s]
		s2 += w2[s]
		s3 += w3[s]
		s4 += w4[s]
		s5 += w5[s]
		s6 += w6[s]
		s7 += w7[s]
	}
	n := float64(len(w0))
	means := [8]float64{s0 / n, s1 / n, s2 / n, s3 / n, s4 / n, s5 / n, s6 / n, s7 / n}
	win.SetCentred8(r, &wins, &means)
	return true
}

// priorMatrix is M when the window holds fewer than two samples: the
// diagonal prior, each market's squared current failure probability plus the
// ridge.
func (c *Catalog) priorMatrix(t int) *linalg.Matrix {
	m := linalg.NewMatrix(c.Len(), c.Len())
	for i, mk := range c.Markets {
		f := mk.FailProbAt(t)
		m.Set(i, i, f*f+covRidge)
	}
	return m
}

// CovarianceMatrix estimates M, the pairwise covariance of revocation
// dynamics, from the failure-probability series over the trailing window
// [t-window, t), as the dense n×n matrix: the transient block scattered into
// it, the ridge alone on every on-demand market's diagonal. The ADMM backend,
// the ablations and bench/'s composed round read this view; every FISTA solve
// the planners run reads CovarianceOperator.
func (c *Catalog) CovarianceMatrix(t, window int) *linalg.Matrix {
	idx, block := c.covarianceBlock(t, window, nil)
	n := c.Len()
	switch {
	case block == nil:
		return c.priorMatrix(t)
	case len(idx) == n:
		return block
	}
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, covRidge) // 0 + ridge, what the ridge makes of a zero row
	}
	for a, i := range idx {
		row := m.Row(i)
		for b, j := range idx {
			row[j] = block.At(a, b)
		}
	}
	return m
}

// CovarianceOperator is M over the same window as the risk operator a FISTA
// solve applies: linalg.CompactRisk(CovarianceMatrix(t, window)) — the same
// operator and coupled count — built from the transient block without forming
// the dense matrix. win is the window buffer the build gathers into and may
// hold from an earlier build (nil: a fresh one); the operator never keeps it,
// so the caller may reuse it as soon as the call returns. It returns the
// operator and its coupled count.
func (c *Catalog) CovarianceOperator(t, window int, win *linalg.Samples) (linalg.MatVec, int) {
	idx, block := c.covarianceBlock(t, window, win)
	if block == nil {
		return linalg.CompactRisk(c.priorMatrix(t))
	}
	return linalg.CompactBlock(c.Len(), idx, block, covRidge)
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
