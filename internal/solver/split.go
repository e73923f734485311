package solver

import (
	"runtime"
	"sync/atomic"

	"repro/internal/linalg"
)

// periodOperator is a QuadOperator over h stacked periods of n variables that
// applies a range of its periods: what a FISTA solve needs to split its
// per-period work in two.
type periodOperator interface {
	QuadOperator
	// Periods returns n and h: n·h == Dim().
	Periods() (n, h int)
	// ApplyPeriods writes periods lo … hi−1 of P·x into dst, reading x's
	// periods lo−1 … hi, with scratch slot part (0 or 1): calls over
	// disjoint ranges with distinct parts may run at once. Every output is
	// the bit Apply writes.
	ApplyPeriods(x, dst linalg.Vector, lo, hi, part int)
}

// splitMinDim is the smallest stacked dimension whose solve splits in two:
// below it the hand-offs, and the cache lines part 1's periods cross between
// the cores, cost more than the part saves. Measured with BenchmarkSplitSolve
// at H 6 (DESIGN.md §5): 576 loses, 864 is within the noise, 1,152 and up
// gain. A what-if cell (6 markets) and a federation shard (50 × 4, no cut)
// stay far below or outside it; plan_single's 288 × 6 = 1,728 splits.
var splitMinDim = 1024

// Who runs part 1 of a split solve: the program always races the caller and
// the helper for it; tests also leave it to the helper, or start no helper.
const (
	helperRaces = iota
	helperTakesAll
	helperNone
)

var splitHelper = helperRaces

// Test hooks, nil in the program: traceSplit sees every solve that splits,
// helper or not, and traceDot every iteration's restart dot — the one serial
// sum whose bits leave the solve only through its sign.
var (
	traceSplit func()
	traceDot   func(dot float64)
)

// spinLimit bounds how many polls the helper and a waiting caller spin before
// each poll yields the processor: a few microseconds, longer than the serial
// steps between two parted ones.
const spinLimit = 1 << 12

// stopped is the generation that tells the helper to exit.
const stopped = ^uint64(0)

// The per-period work an iteration hands to its parts.
const (
	taskApply = iota // w = P·v (power iteration)
	taskStep         // grad = P·yv; xPrev = x; x = Π(yv − step·(grad + q))
	taskCheck        // grad = P·x; tmp = Π(x − step·(grad + q))
)

// split runs a FISTA solve's per-period work — the product with P, the
// gradient step or the residual check's trial point, and the projection — as
// one part over every period, or as two over contiguous period ranges. The
// caller runs part 0; part 1 goes to a helper goroutine started for the solve,
// which claims it by compare-and-swap, and when the caller finishes part 0 and
// finds part 1 unclaimed it runs part 1 itself, so it never waits on a part
// nobody started. Without a helper the parts run inline, in order. Each
// output element is written by one part with the arithmetic of the whole, so
// the split moves no bit. It lives in the solve's WarmState.
type split struct {
	p      ProjectedProblem // a copy: the caller's may stay on its stack
	po     periodOperator   // nil: one part, applied and projected whole
	ps     *ProductSet
	n      int    // elements per period; the whole dimension with one part
	cut    [3]int // part k covers periods cut[k] … cut[k+1]−1
	parts  int
	helped bool // a helper goroutine runs beside the caller

	// The task and its operands: the caller writes them before it posts.
	task                    int
	step                    float64
	v, w                    linalg.Vector // taskApply's operands
	x, xPrev, yv, grad, tmp linalg.Vector

	// Generations: the caller posts g, part 1 of g is claimed by whoever
	// moves claimed from g−1 to g, and the helper marks it done. Posting
	// stopped tells the helper to exit, and it marks stopped done last.
	gen                   uint64
	posted, claimed, done atomic.Uint64
}

// setup splits the solve of p, whose dimension is dim, when GOMAXPROCS
// leaves a second processor, dim reaches splitMinDim, P applies period ranges,
// C is a ProductSet of one block per period and linalg.StackedSplit cuts the
// horizon — where the lane kernel's passes stay whole; otherwise it readies
// one part. A split solve starts its helper.
func (s *split) setup(p *ProjectedProblem, dim int) {
	s.p, s.po, s.ps, s.n, s.parts, s.helped = *p, nil, nil, dim, 1, false
	s.cut = [3]int{0, 1, 1}
	if dim < splitMinDim || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	po, ok := p.P.(periodOperator)
	ps, isSet := p.C.(*ProductSet)
	if !ok || !isSet {
		return
	}
	n, h := po.Periods()
	cut := linalg.StackedSplit(h)
	if cut == 0 || n*h != dim || len(ps.Blocks) != h {
		return
	}
	for _, d := range ps.dims {
		if d != n {
			return
		}
	}
	s.po, s.ps, s.n, s.parts, s.cut = po, ps, n, 2, [3]int{0, cut, h}
	if traceSplit != nil {
		traceSplit()
	}
	if splitHelper != helperNone { // the generations are 0: stop zeroed them
		s.helped = true
		go s.help()
	}
}

// stop tells the helper to exit and waits until it has made its last access
// to the solve, and drops the solve's problem and vectors, which the
// WarmState holds on to otherwise. It waits as run does, spinning then
// yielding: a caller parked on a WaitGroup resumed on the helper's processor,
// away from its caches, and plan_single's op_p90_ms read 8 % higher.
func (s *split) stop() {
	if s.helped {
		s.helped = false
		s.posted.Store(stopped)
		s.wait(stopped)
	}
	*s = split{}
}

// wait returns once the helper has marked generation g done.
func (s *split) wait(g uint64) {
	for spins := 0; s.done.Load() != g; spins++ {
		if spins >= spinLimit {
			runtime.Gosched()
		}
	}
}

// help is the helper goroutine: it claims and runs part 1 of each posted
// generation the caller has not claimed first, spinning spinLimit polls
// between posts before it yields on each poll, until stop.
func (s *split) help() {
	var seen uint64
	for spins := 0; ; spins++ {
		g := s.posted.Load()
		if g == seen {
			if spins >= spinLimit {
				runtime.Gosched()
			}
			continue
		}
		if g == stopped {
			s.done.Store(stopped) // the last access: stop may return
			return
		}
		seen, spins = g, 0
		if s.claimed.CompareAndSwap(g-1, g) {
			s.part(1)
			s.done.Store(g)
		}
	}
}

// run runs task over every part and returns when all of them are done.
func (s *split) run(task int) {
	s.task = task
	if !s.helped {
		for k := 0; k < s.parts; k++ {
			s.part(k)
		}
		return
	}
	s.gen++
	g := s.gen
	s.posted.Store(g)
	s.part(0)
	if splitHelper != helperTakesAll && s.claimed.CompareAndSwap(g-1, g) {
		s.part(1)
		return
	}
	s.wait(g)
}

// part runs the task over part k's periods.
func (s *split) part(k int) {
	lo, hi := s.cut[k], s.cut[k+1]
	switch s.task {
	case taskApply:
		s.apply(s.v, s.w, k)
		return
	case taskStep:
		s.apply(s.yv, s.grad, k)
	default:
		s.apply(s.x, s.grad, k)
	}
	a, b := lo*s.n, hi*s.n
	step, q := s.step, s.p.Q[a:b]
	x, grad := s.x[a:b], s.grad[a:b]
	out := s.tmp
	if s.task == taskStep {
		xPrev, yv := s.xPrev[a:b], s.yv[a:b]
		for i := range x {
			xPrev[i] = x[i]
			x[i] = yv[i] - float64(step*(grad[i]+q[i]))
		}
		out = s.x
	} else {
		tmp := s.tmp[a:b]
		for i := range tmp {
			tmp[i] = x[i] - float64(step*(grad[i]+q[i]))
		}
	}
	if s.ps == nil {
		s.p.C.Project(out)
	} else {
		s.ps.ProjectBlocks(out, lo, hi)
	}
}

// apply writes part k's periods of P·x into dst.
func (s *split) apply(x, dst linalg.Vector, k int) {
	if s.po == nil {
		s.p.P.Apply(x, dst)
		return
	}
	s.po.ApplyPeriods(x, dst, s.cut[k], s.cut[k+1], k)
}
