package solver

import (
	"math"

	"repro/internal/linalg"
)

// WarmState carries solver-internal state across successive solves of nearby
// problems — the receding-horizon ("solve every interval, execute the first
// period") regime, where round t+1's QP differs from round t's by one shifted
// period and small data deltas. Callers treat it as opaque: take it from
// Result.Warm, optionally ShiftHorizon it, and pass it back through the
// settings of the next solve. A WarmState only ever *seeds* a solve; every
// component that affects correctness (the cached KKT factorization) is
// revalidated against the new problem's data, so a warm solve terminates on
// the same residual criteria as a cold one and its solution is interchangeable
// within solver tolerance.
//
// A WarmState must not be shared across concurrent solves: each solve that
// consumes one should own it.
type WarmState struct {
	// Primal/dual iterates. x seeds both solvers; z and y are ADMM-only (nil
	// for FISTA).
	x, z, y linalg.Vector

	// Cached KKT engine of the ADMM x-update — the block-tridiagonal
	// factorization of the reduced MPO system — valid only for the exact
	// (P, A, σ, ρ) combination fingerprinted by factSig. Reused when the next
	// problem hashes identically, which skips the refactorization — the
	// dominant ADMM setup cost.
	fact    *reducedKKT
	factSig uint64

	// Cached Lipschitz data (FISTA): the previous λmax(P) estimate and the
	// dominant eigenvector it converged to. A warm estimate restarts power
	// iteration from lipVec, which tracks the slowly-drifting Hessian in a
	// handful of matvecs instead of the cold 30.
	lip    float64
	lipVec linalg.Vector

	// FISTA momentum pair and step counter.
	xPrev linalg.Vector
	tk    float64
}

// HasFactorization reports whether the state carries a cached KKT
// factorization (diagnostic; the solver revalidates it independently).
func (w *WarmState) HasFactorization() bool { return w != nil && w.fact != nil }

// ShiftHorizon shifts the stored iterates one period earlier for a
// receding-horizon problem whose decision vector stacks h period-blocks of n
// variables: block τ takes block τ+1's values and the terminal block is
// duplicated — the standard MPC seed for the next round's solve.
//
// ADMM dual/slack iterates are shifted too when their length matches an MPO
// constraint layout (h·n box rows followed by h per-period aggregate rows, or
// h·n + 2h when the anchor tier adds a second aggregate row per period);
// any other layout drops them, which degrades the seed but never correctness.
// Cached factorizations and Lipschitz data are layout-independent and survive
// the shift untouched.
func (w *WarmState) ShiftHorizon(n int) {
	if w == nil || n <= 0 {
		return
	}
	shiftBlocks := func(v linalg.Vector, blk int) {
		if blk <= 0 || len(v)%blk != 0 || len(v) <= blk {
			return
		}
		copy(v, v[blk:])
		// Terminal block duplicated: v[end-blk:] already holds it.
	}
	if w.x != nil && len(w.x)%n == 0 {
		shiftBlocks(w.x, n)
		shiftBlocks(w.xPrev, n)
		h := len(w.x) / n
		hn := h * n
		switch {
		case len(w.z) == hn+h && len(w.y) == len(w.z):
			shiftBlocks(w.z[:hn], n)
			shiftBlocks(w.z[hn:], 1)
			shiftBlocks(w.y[:hn], n)
			shiftBlocks(w.y[hn:], 1)
		case len(w.z) == hn+2*h && len(w.y) == len(w.z):
			shiftBlocks(w.z[:hn], n)
			shiftBlocks(w.z[hn:hn+h], 1)
			shiftBlocks(w.z[hn+h:], 1)
			shiftBlocks(w.y[:hn], n)
			shiftBlocks(w.y[hn:hn+h], 1)
			shiftBlocks(w.y[hn+h:], 1)
		default:
			w.z, w.y = nil, nil
		}
	} else {
		// Unknown layout: the iterates cannot be shifted meaningfully.
		w.x, w.z, w.y, w.xPrev = nil, nil, nil, nil
	}
}

// problemSig fingerprints the data the ADMM KKT factorization depends on: the
// Block declaration and the CSR constraint matrix, plus (σ, ρ) and the
// dimensions. FNV-1a over the raw float bits — a value hash, not just a
// sparsity hash, so a cached factorization is only ever reused when it is
// numerically exact for the new problem. The hashing pass is linear in the
// problem data and negligible next to the factorization it guards.
func problemSig(p *Problem, sigma, rho float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mixFloats := func(vs []float64) {
		for _, v := range vs {
			mix(math.Float64bits(v))
		}
	}
	mix(uint64(p.N()))
	mix(uint64(p.M()))
	mix(math.Float64bits(sigma))
	mix(math.Float64bits(rho))
	mix(uint64(p.Block.N))
	mix(uint64(p.Block.H))
	mix(math.Float64bits(p.Block.RiskScale))
	mix(math.Float64bits(p.Block.ChurnK))
	mixFloats(p.Block.Risk.Data)
	for _, v := range p.ASparse.RowPtr {
		mix(uint64(v))
	}
	for _, v := range p.ASparse.ColIdx {
		mix(uint64(v))
	}
	mixFloats(p.ASparse.Val)
	return h
}
