// Package parallel provides the worker pool that runs independent tasks side
// by side: federation shard solves (PoolFor) and what-if sweep cells (NewIO).
// Nothing inside a solver or a linalg kernel uses a pool. A large FISTA solve
// splits its per-period work in two parts with one helper goroutine of its
// own, started and stopped by the solve (solver.SolveFISTA): a pool's
// hand-off per fan-out cost more than it saved (DESIGN.md §5). Beside a
// planning round's solve, portfolio.Planner builds the next round's risk
// operator — one covariance build — on a goroutine of its own; that is not a
// pool task either.
//
// Design constraints, in order of importance:
//
//  1. Determinism. Tasks write only their own outputs, so results do not
//     depend on how many workers run.
//  2. Deadlock freedom under nesting. Do hands at most one helper to each
//     worker it may use and then runs tasks itself; it waits for tasks, never
//     for helpers, so a helper no worker takes (all busy) costs nothing.
//  3. Serial fallback. A serial pool runs everything inline with zero
//     goroutine traffic, so callers can unconditionally route work through a
//     Pool.
//
// New's pools are bounded by GOMAXPROCS: asking for more workers than cores
// buys nothing on a CPU-bound numeric path and only adds scheduler pressure.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs tasks on a fixed set of worker goroutines. The zero value is not
// usable; use New, NewIO, Default or Serial.
//
// A Pool is safe for concurrent use: any number of goroutines may issue Do
// calls against the same pool simultaneously (they share the workers).
type Pool struct {
	width int
	tasks chan func() // nil ⇒ serial pool: everything runs inline
	owner bool        // true when this Pool spawned the workers (Close allowed)
}

// Serial is the degenerate pool: every Do call runs inline on the caller.
// It is the correct default wherever parallelism is opt-in.
var Serial = &Pool{width: 1}

// New returns a pool with the given number of workers, clamped to
// [1, GOMAXPROCS]. workers <= 0 selects GOMAXPROCS. A one-worker pool is
// Serial (no goroutines are spawned).
//
// Pools returned by New own their workers; call Close when done with a
// short-lived pool. Long-lived pools (one per process) never need closing.
func New(workers int) *Pool {
	max := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > max {
		workers = max
	}
	if workers == 1 {
		return Serial
	}
	p := &Pool{width: workers, tasks: make(chan func()), owner: true}
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// NewIO returns a pool with exactly the given number of workers, NOT clamped
// to GOMAXPROCS, with a queue deep enough to hold one Do helper per worker.
// It is meant for workloads that block — sleeping sweep cells, network waits,
// subprocess fan-out — where more workers than cores is the point: on a
// one-core box an 8-worker NewIO pool overlaps 8 blocking tasks. The queue
// depth matters for the same reason: with unbuffered hand-off a Do caller can
// find every worker momentarily unscheduled and start no helper, which
// serializes the very blocking this pool exists to overlap. Helpers that
// overflow the queue are not started (deadlock freedom, constraint 2), but
// under steady draining that is rare. Determinism guarantees are unchanged.
//
// workers <= 1 returns Serial. Pools returned by NewIO own their workers;
// call Close when done.
func NewIO(workers int) *Pool {
	if workers <= 1 {
		return Serial
	}
	p := &Pool{width: workers, tasks: make(chan func(), workers), owner: true}
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use with
// GOMAXPROCS workers. It must not be closed.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// PoolFor maps a user-facing parallelism knob to a pool: 0 and 1 select
// Serial (the opt-in default), negative values select the shared full-width
// pool, and n > 1 selects a width-n view of the shared pool. This is the
// translation point for the federation planner's shard-pool bound.
func PoolFor(n int) *Pool {
	switch {
	case n == 0 || n == 1:
		return Serial
	case n < 0:
		return Default()
	default:
		return Default().Limit(n)
	}
}

// Limit returns a view of p whose parallel width is at most width. The view
// shares p's workers. width <= 0 or width >= p's own width returns p itself; a
// width of 1 returns Serial.
func (p *Pool) Limit(width int) *Pool {
	if p == nil || p.tasks == nil || width >= p.width || width <= 0 {
		return p
	}
	if width == 1 {
		return Serial
	}
	return &Pool{width: width, tasks: p.tasks}
}

// Close shuts down the workers of a pool created by New. It is a no-op on
// Serial and on Limit views. Close must not be called concurrently with
// Do, and must not be called on Default's pool.
func (p *Pool) Close() {
	if p.owner && p.tasks != nil {
		close(p.tasks)
	}
}

func (p *Pool) work() {
	for fn := range p.tasks {
		fn()
	}
}

// firstPanic records the first panic raised by any task so the caller can
// re-raise it after every task has finished.
type firstPanic struct {
	mu  sync.Mutex
	val any
	set bool
}

func (f *firstPanic) capture() {
	if r := recover(); r != nil {
		f.mu.Lock()
		if !f.set {
			f.val, f.set = r, true
		}
		f.mu.Unlock()
	}
}

func (f *firstPanic) repanic() {
	if f.set {
		panic(f.val)
	}
}

// Do runs the given functions on the pool, at most the pool's width at a
// time (the caller counts as one), and waits for all of them, re-raising the
// first panic. It is the fan-out primitive for independent tasks such as shard
// solves and sweep cells.
func (p *Pool) Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if p == nil || p.tasks == nil || p.width <= 1 || len(fns) == 1 {
		var pan firstPanic
		for _, fn := range fns {
			func() {
				defer pan.capture()
				fn()
			}()
		}
		pan.repanic()
		return
	}
	// One hand-off per worker, not per task: at most width-1 helpers go to
	// the pool and, with the caller, claim task indices from one counter. A
	// helper no worker takes is simply not started, and completion is counted
	// per task, so one that a busy or buffered pool starts late finds nothing
	// left to claim and is never waited for.
	var (
		next atomic.Int64
		left sync.WaitGroup
		pan  firstPanic
	)
	left.Add(len(fns))
	claim := func() {
		for i := next.Add(1) - 1; i < int64(len(fns)); i = next.Add(1) - 1 {
			func() {
				defer left.Done()
				defer pan.capture()
				fns[i]()
			}()
		}
	}
	for h := min(p.width, len(fns)) - 1; h > 0; h-- {
		select {
		case p.tasks <- claim:
		default:
		}
	}
	claim()
	left.Wait()
	pan.repanic()
}
