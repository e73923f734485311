package linalg

import (
	"sync/atomic"

	"repro/internal/parallel"
)

// The package-level pool gates block-parallel execution of the dense kernels
// (MulVec, MulVecT, MulVecStacked and their Compact twins, Mul, AtA, Cholesky,
// FactorBlockTriDiag). It is nil by default — every routine then runs
// serially, exactly as before — and is registered once at process start by
// callers that opt in (spotwebd/spotweb-sim -parallelism).
//
// Parallel execution is bit-identical to serial execution: kernels split only
// across disjoint output ranges and every element keeps its serial-order
// accumulation, so no floating-point reduction is ever reordered.
var activePool atomic.Pointer[parallel.Pool]

// SetPool registers the worker pool the dense kernels may use; nil restores
// serial execution. Safe for concurrent use, though the intended pattern is
// one call at startup.
func SetPool(p *parallel.Pool) {
	if p != nil && p.Workers() <= 1 {
		p = nil
	}
	activePool.Store(p)
}

// ActivePool returns the registered pool, or nil when kernels run serially.
func ActivePool() *parallel.Pool { return activePool.Load() }

// minParallelFlops is the approximate per-chunk work (floating-point ops)
// below which goroutine dispatch costs more than it saves; ranges whose total
// work is under one chunk run inline.
const minParallelFlops = 1 << 15

// pfor splits [0, n) across the registered pool when the total work
// n·flopsPerItem warrants it, with a grain sized to minParallelFlops. The
// body must only write outputs indexed by its own [lo, hi) range.
func pfor(n, flopsPerItem int, body func(lo, hi int)) {
	p := activePool.Load()
	if p == nil {
		body(0, n)
		return
	}
	if flopsPerItem < 1 {
		flopsPerItem = 1
	}
	grain := minParallelFlops / flopsPerItem
	if grain < 1 {
		grain = 1
	}
	p.For(n, grain, body)
}
