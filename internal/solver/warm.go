package solver

import "repro/internal/linalg"

// WarmState carries FISTA's state across successive solves of nearby
// problems — the receding-horizon ("solve every interval, execute the first
// period") regime, where round t+1's QP differs from round t's by one shifted
// period and small data deltas. Callers treat it as opaque: take it from
// Result.Warm, optionally ShiftHorizon it, and pass it back through the
// settings of the next solve. A WarmState only ever *seeds* a solve: a warm
// solve terminates on the same residual criteria as a cold one and its
// solution is interchangeable within solver tolerance.
//
// A solve consumes the state it is given: it works in the state's vectors —
// the iterates in place, the rest as scratch — and returns the same state,
// refilled, as its Result.Warm, so a receding-horizon run allocates no solver
// vectors after its first round. The Result.X beside it is a copy the caller
// owns; no later solve writes it. A WarmState must not be shared across
// concurrent solves, and a state passed to one solve must not be passed to
// another except as that solve's Result.Warm.
type WarmState struct {
	// Primal iterate.
	x linalg.Vector

	// Cached Lipschitz data: the previous λmax(P) estimate and the dominant
	// eigenvector it converged to. A warm estimate restarts power iteration
	// from lipVec, which tracks the slowly-drifting Hessian in a handful of
	// matvecs instead of the cold 30.
	lip    float64
	lipVec linalg.Vector

	// FISTA momentum pair and step counter.
	xPrev linalg.Vector
	tk    float64

	// Work vectors the next solve of the same dimension reuses: the
	// extrapolated point, the gradient, the residual check's trial point
	// and power iteration's product.
	yv, grad, tmp, lipW linalg.Vector

	// The solve's parts and its helper hand-off; nothing of it carries over.
	split split
}

// ShiftHorizon shifts the stored iterates one period earlier for a
// receding-horizon problem whose decision vector stacks h period-blocks of n
// variables: block τ takes block τ+1's values and the terminal block is
// duplicated — the standard MPC seed for the next round's solve. Iterates
// that are not whole blocks of n are dropped, which degrades the seed but
// never correctness. The Lipschitz data is layout-independent and survives
// the shift untouched.
func (w *WarmState) ShiftHorizon(n int) {
	if w == nil || n <= 0 {
		return
	}
	shift := func(v linalg.Vector) {
		if len(v)%n == 0 && len(v) > n {
			copy(v, v[n:]) // the terminal block stays: it is duplicated
		}
	}
	if w.x != nil && len(w.x)%n == 0 {
		shift(w.x)
		shift(w.xPrev)
	} else {
		// Unknown layout: the iterates cannot be shifted meaningfully.
		w.x, w.xPrev = nil, nil
	}
}
