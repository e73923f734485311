package solver

import (
	"math"

	"repro/internal/linalg"
)

// ProjectBox projects x onto the box [lo, hi] element-wise, in place.
func ProjectBox(x, lo, hi linalg.Vector) {
	linalg.Clamp(x, lo, hi)
}

// BoxBand is the set {x : lo ≤ x ≤ hi, sumLo ≤ Σx ≤ sumHi} — a box
// intersected with a budget band. This is exactly the per-period feasible
// region of the SpotWeb portfolio program (constraints 7–10 of the paper:
// A ≥ 0, A ≤ aMax, AMin ≤ ΣA ≤ AMax).
type BoxBand struct {
	Lo, Hi         linalg.Vector
	SumLo, SumHi   float64
	maxBisectIters int

	// Optional anchor constraint Σ_{i∈anchorIdx} x_i ≥ anchorMin — the
	// non-revocable HA tier floor. Configured with WithAnchor; when unset the
	// projection is exactly the plain box∩band bisection above.
	anchorIdx []int
	anchorMin float64
	otherIdx  []int    // complement of anchorIdx
	subA      *BoxBand // anchor coords, Σ pinned to anchorMin when active
	subO      *BoxBand // other coords, residual budget band
	trial     linalg.Vector
	bufA      linalg.Vector
	bufO      linalg.Vector

	// ordered records, once, that every Lo[i] ≤ Hi[i] — the precondition of
	// the monotonicity projectPlain's certificate rests on. mu is the
	// multiplier this set's last bisected projection returned: where the next
	// one starts looking. stats counts the real passes.
	ordered bool
	mu      float64
	stats   ProjectionStats
}

// ProjectionStats counts the projections that had to bisect for the budget
// multiplier, the real O(n) passes they evaluated (the pass at μ = 0
// included, the write-back not) and how many of them took the grid jump.
// Passes/Projections ≈ 6 means the certificate answered the bisection's
// queries; ≈ 50 means every query was evaluated.
type ProjectionStats struct {
	Projections, Passes, Jumps int
}

// Add folds the counts of o into s.
func (s *ProjectionStats) Add(o ProjectionStats) {
	s.Projections += o.Projections
	s.Passes += o.Passes
	s.Jumps += o.Jumps
}

// since returns the counts accumulated after the earlier snapshot o.
func (s ProjectionStats) since(o ProjectionStats) ProjectionStats {
	return ProjectionStats{s.Projections - o.Projections, s.Passes - o.Passes, s.Jumps - o.Jumps}
}

// PassesPerProjection is Passes/Projections, and 0 when nothing bisected.
func (s ProjectionStats) PassesPerProjection() float64 {
	if s.Projections == 0 {
		return 0
	}
	return float64(s.Passes) / float64(s.Projections)
}

// NewBoxBand constructs the set; it panics on dimension mismatch and returns
// an unfeasible-set error through Feasible() rather than at construction.
func NewBoxBand(lo, hi linalg.Vector, sumLo, sumHi float64) *BoxBand {
	if len(lo) != len(hi) {
		panic("solver: BoxBand lo/hi length mismatch")
	}
	ordered := true
	for i := range lo {
		if !(lo[i] <= hi[i]) { // also false for a NaN bound
			ordered = false
			break
		}
	}
	return &BoxBand{Lo: lo, Hi: hi, SumLo: sumLo, SumHi: sumHi, maxBisectIters: 100, ordered: ordered}
}

// Stats returns the pass counts of every projection run on this set so far,
// including the anchored sub-blocks.
func (b *BoxBand) Stats() ProjectionStats {
	st := b.stats
	if b.subA != nil {
		st.Add(b.subA.stats)
		st.Add(b.subO.stats)
	}
	return st
}

// WithAnchor adds the constraint Σ_{i∈idx} x_i ≥ min to the set — the
// anchor-tier floor of the SpotWeb HA formulation. It returns the receiver
// for chaining. A nil/empty idx or min ≤ 0 leaves the set (and the exact
// floating-point behaviour of Project) untouched. The sub-problems used when
// the anchor is active are prebuilt here so Project stays allocation-free.
func (b *BoxBand) WithAnchor(idx []int, min float64) *BoxBand {
	if len(idx) == 0 || min <= 0 {
		return b
	}
	n := len(b.Lo)
	isAnchor := make([]bool, n)
	for _, i := range idx {
		isAnchor[i] = true
	}
	b.anchorIdx = append([]int(nil), idx...)
	b.anchorMin = min
	b.otherIdx = b.otherIdx[:0]
	for i := 0; i < n; i++ {
		if !isAnchor[i] {
			b.otherIdx = append(b.otherIdx, i)
		}
	}
	na, no := len(b.anchorIdx), len(b.otherIdx)
	loA, hiA := linalg.NewVector(na), linalg.NewVector(na)
	for k, i := range b.anchorIdx {
		loA[k], hiA[k] = b.Lo[i], b.Hi[i]
	}
	loO, hiO := linalg.NewVector(no), linalg.NewVector(no)
	for k, i := range b.otherIdx {
		loO[k], hiO[k] = b.Lo[i], b.Hi[i]
	}
	// When the floor is active the anchor block carries exactly min and the
	// remaining coordinates absorb the residual total-budget band.
	b.subA = NewBoxBand(loA, hiA, min, min)
	b.subO = NewBoxBand(loO, hiO, b.SumLo-min, b.SumHi-min)
	b.trial = linalg.NewVector(n)
	b.bufA = linalg.NewVector(na)
	b.bufO = linalg.NewVector(no)
	return b
}

// Feasible reports whether the set is non-empty.
func (b *BoxBand) Feasible() bool {
	var minSum, maxSum float64
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return false
		}
		minSum += b.Lo[i]
		maxSum += b.Hi[i]
	}
	if b.SumLo > b.SumHi || minSum > b.SumHi || maxSum < b.SumLo {
		return false
	}
	if b.anchorMin > 0 {
		// The anchor block must be able to reach its floor, and pinning it at
		// the floor must leave the residual band reachable for the rest.
		var hiA, loO float64
		for _, i := range b.anchorIdx {
			hiA += b.Hi[i]
		}
		for _, i := range b.otherIdx {
			loO += b.Lo[i]
		}
		if hiA < b.anchorMin || b.anchorMin+loO > b.SumHi {
			return false
		}
	}
	return true
}

// clipSum returns g(μ) = Σ_i clip(y_i − μ, lo_i, hi_i), summed in index order,
// and the number of coordinates strictly between their bounds (−g's slope at
// μ).
func (b *BoxBand) clipSum(y linalg.Vector, mu float64) (s float64, free int) {
	for i, v := range y {
		z := v - mu
		if z < b.Lo[i] {
			z = b.Lo[i]
		} else if z > b.Hi[i] {
			z = b.Hi[i]
		} else if z != b.Lo[i] && z != b.Hi[i] {
			free++
		}
		s += z
	}
	return s, free
}

// certificate is what the real passes of one projection have proved about g
// against target. On an ordered box g is nonincreasing in μ as computed, not
// only in exact arithmetic: fl(y_i − μ) is, clipping to lo_i ≤ hi_i keeps it
// so, and the rounded sum of two nonincreasing terms is nonincreasing again
// (DESIGN.md §5). One evaluated pass therefore settles every μ on its far
// side:
//
//	μ ≤ gt          ⇒ g(μ) > target
//	eqLo ≤ μ ≤ eqHi ⇒ g(μ) == target
//	μ ≥ lt          ⇒ g(μ) < target
//
// off is set for a box that is not ordered and by a pass whose sum is NaN
// (infinite terms of both signs): the certificate is emptied and stays empty,
// so it answers nothing and every query is evaluated.
type certificate struct {
	target             float64
	gt, eqLo, eqHi, lt float64
	off                bool
}

// newCertificate knows nothing yet.
func newCertificate(target float64, off bool) certificate {
	return certificate{target: target, gt: math.Inf(-1), eqLo: math.Inf(1), eqHi: math.Inf(-1), lt: math.Inf(1), off: off}
}

// record adds what g(mu) == sum proves.
func (c *certificate) record(mu, sum float64) {
	switch {
	case c.off:
	case sum > c.target:
		c.gt = max(c.gt, mu)
	case sum < c.target:
		c.lt = min(c.lt, mu)
	case sum == c.target:
		c.eqLo, c.eqHi = min(c.eqLo, mu), max(c.eqHi, mu)
	default:
		*c = newCertificate(c.target, true)
	}
}

// ub is the smallest μ known to have g(μ) ≤ target.
func (c *certificate) ub() float64 { return min(c.eqLo, c.lt) }

// open reports whether a pass at mu could still tell the bisection something:
// mu lies strictly between gt and ub (never for a NaN or infinite mu).
func (c *certificate) open(mu float64) bool {
	return !c.off && mu > c.gt && mu < c.ub()
}

// pass evaluates g(mu) for real and records what it proves.
func (b *BoxBand) pass(y linalg.Vector, mu float64, c *certificate) (sum float64, free int) {
	b.stats.Passes++
	sum, free = b.clipSum(y, mu)
	c.record(mu, sum)
	return sum, free
}

// above answers g(mu) > target, from the certificate when it can.
func (b *BoxBand) above(y linalg.Vector, mu float64, c *certificate) bool {
	if mu <= c.gt {
		return true
	}
	if mu >= c.ub() {
		return false
	}
	sum, _ := b.pass(y, mu, c)
	return sum > c.target
}

// below answers g(mu) < target, from the certificate when it can.
func (b *BoxBand) below(y linalg.Vector, mu float64, c *certificate) bool {
	if mu >= c.lt {
		return true
	}
	if mu <= max(c.gt, c.eqHi) {
		return false
	}
	sum, _ := b.pass(y, mu, c)
	return sum < c.target
}

// tighten spends a few real passes where the root is likely to be, so that
// the bracket and bisection queries of projectPlain find their answers
// certified. It decides nothing: a pass only adds to c what g proves at that
// μ, so the projection does not depend on how well tighten guesses. sum and
// free are those of the pass at μ = 0.
//
// Newton steps start from the multiplier of the set's previous projection
// (from μ = 0 when that one is already settled) and stop when the step leaves
// the open gap — g is piecewise linear, so a step taken on the root's piece
// lands within rounding of it. That leaves one side of the root pinned at the
// last pass; a probe walks outward from it, two rounding quanta first and 8×
// further each time, until the other side is pinned too.
func (b *BoxBand) tighten(y linalg.Vector, c *certificate, sum float64, free int) {
	const newtonPasses, probePasses = 6, 4
	at, next := 0.0, b.mu
	if !c.open(next) {
		next = b.newton(y, c, at, sum, free)
	}
	n := 0
	for ; n < newtonPasses && c.open(next); n++ {
		at = next
		sum, free = b.pass(y, at, c)
		next = b.newton(y, c, at, sum, free)
	}
	if n == 0 || c.open(next) {
		return // nowhere to look, or not converged: ulp-sized probes cannot help
	}
	dir := -1.0
	if sum > c.target {
		dir = 1
	}
	// One quantum: an ulp of μ, or the change of μ that moves the sum an ulp.
	d := 2 * (math.Abs(at) + math.Abs(c.target)/float64(max(free, 1))) * 0x1p-52
	for k := 0; k < probePasses; k++ {
		at += dir * d
		if !c.open(at) {
			return // the far side is already this close
		}
		if sum, _ = b.pass(y, at, c); (sum > c.target) != (dir > 0) {
			return
		}
		d *= 8
	}
}

// newton returns the root of the linear piece of g that the pass (at, sum,
// free) saw: at + (sum − target)/free. On a flat piece (free == 0) it first
// moves to the end of the piece on the root's side — the nearest μ at which a
// coordinate at a bound leaves it, the left end when sum == target
// because that is where the bisection converges — and assumes slope −1 from
// there; ±Inf when no coordinate can move. The scan is counted as a pass.
func (b *BoxBand) newton(y linalg.Vector, c *certificate, at, sum float64, free int) float64 {
	if free > 0 {
		return at + (sum-c.target)/float64(free)
	}
	b.stats.Passes++
	var end float64
	if sum > c.target {
		end = math.Inf(1)
		for i, v := range y {
			if hi := b.Hi[i]; v-at >= hi && b.Lo[i] < hi {
				end = min(end, v-hi)
			}
		}
	} else {
		end = math.Inf(-1)
		for i, v := range y {
			if lo := b.Lo[i]; v-at <= lo && lo < b.Hi[i] {
				end = max(end, v-lo)
			}
		}
	}
	return end + (sum - c.target)
}

// Project projects y onto the set in place. The projection is the Euclidean
// one: first clip to the box; if the sum lands outside [SumLo, SumHi], solve
// for the Lagrange multiplier μ of the active sum constraint by bisection on
// the monotone function μ ↦ Σ clip(y−μ, lo, hi).
//
// With an anchor floor (WithAnchor) the projection first tries the plain
// box∩band projection; if that already satisfies Σ_anchor ≥ anchorMin it IS
// the constrained projection. Otherwise the floor is provably active at the
// true projection (were it slack, the KKT system would coincide with the
// plain one, whose unique solution violates the floor — contradiction), so
// Σ_anchor = anchorMin exactly and the problem decouples: the anchor block
// projects onto {box_A, Σ = anchorMin} and the rest onto the residual band
// {box_O, Σ ∈ [SumLo−anchorMin, SumHi−anchorMin]}. Both are plain BoxBand
// projections, so the anchored projection is exact, not approximate.
func (b *BoxBand) Project(y linalg.Vector) {
	if len(y) != len(b.Lo) {
		panic("solver: BoxBand Project dimension mismatch")
	}
	if b.anchorMin <= 0 {
		b.projectPlain(y)
		return
	}
	copy(b.trial, y)
	b.projectPlain(b.trial)
	var sa float64
	for _, i := range b.anchorIdx {
		sa += b.trial[i]
	}
	if sa >= b.anchorMin-1e-12 {
		copy(y, b.trial)
		return
	}
	for k, i := range b.anchorIdx {
		b.bufA[k] = y[i]
	}
	for k, i := range b.otherIdx {
		b.bufO[k] = y[i]
	}
	b.subA.projectPlain(b.bufA)
	b.subO.projectPlain(b.bufO)
	for k, i := range b.anchorIdx {
		y[i] = b.bufA[k]
	}
	for k, i := range b.otherIdx {
		y[i] = b.bufO[k]
	}
}

// projectPlain is the anchor-free box∩band projection: a bisection on μ whose
// bracket-doubling loop, mid sequence, stop rule and write-back are the plain
// ones, with each decision read from the certificate and a real pass only
// when the queried μ falls in the gap the earlier passes left open.
func (b *BoxBand) projectPlain(y linalg.Vector) {
	s, free := b.clipSum(y, 0)
	var target float64
	switch {
	case s > b.SumHi:
		target = b.SumHi
	case s < b.SumLo:
		target = b.SumLo
	default:
		ProjectBox(y, b.Lo, b.Hi)
		return
	}
	b.stats.Projections++
	b.stats.Passes++
	c := newCertificate(target, !b.ordered)
	c.record(0, s)
	if !c.off {
		b.tighten(y, &c, s, free)
	}
	// Bracket μ. g is nonincreasing in μ; find [muLo, muHi] such that
	// g(muLo) ≥ target ≥ g(muHi).
	muLo, muHi := 0.0, 0.0
	if s > c.target {
		// Need μ > 0. The largest useful μ drives everything to Lo.
		muHi = 1.0
		for b.above(y, muHi, &c) {
			muHi *= 2
			if muHi > 1e18 {
				break
			}
		}
	} else {
		muLo = -1.0
		for b.below(y, muLo, &c) {
			muLo *= 2
			if muLo < -1e18 {
				break
			}
		}
	}
	// Grid jump. The bracket is [0, 2^k] or [−2^k, 0] with k ≥ 0, so every mid
	// of the first 40 levels is a multiple of h = 2^(k−40) of magnitude at most
	// 2^k — computed exactly — and the stop rule cannot fire on a width ≥ h ≈
	// 9e-13·2^k against 1e-14·(1+|muLo|) ≤ 2e-14·2^k. The decisions are
	// monotone on that grid, so those 40 steps end on the one cell whose left
	// end is the bracket's or decides "above" and whose right end is the
	// bracket's or decides "not above". lo and lo+h below are grid points
	// whatever the rounding of the quotient; the comparisons verify the rest
	// (and fail for an empty certificate: gt = −Inf).
	iter := 0
	h := (muHi - muLo) * 0x1p-40
	if lo := muLo + h*math.Floor((c.gt-muLo)/h); muLo <= lo && lo <= c.gt && c.ub() <= lo+h && lo+h <= muHi {
		muLo, muHi, iter = lo, lo+h, 40
		b.stats.Jumps++
	}
	for ; iter < b.maxBisectIters; iter++ {
		mid := 0.5 * (muLo + muHi)
		if b.above(y, mid, &c) {
			muLo = mid
		} else {
			muHi = mid
		}
		if muHi-muLo < 1e-14*(1+math.Abs(muLo)) {
			break
		}
	}
	mu := 0.5 * (muLo + muHi)
	b.mu = mu
	for i, v := range y {
		z := v - mu
		if z < b.Lo[i] {
			z = b.Lo[i]
		} else if z > b.Hi[i] {
			z = b.Hi[i]
		}
		y[i] = z
	}
}

// ProductSet is a Cartesian product of BoxBand blocks: the horizon-stacked
// feasible region of the multi-period program. Block k constrains
// x[offsets[k] : offsets[k+1]].
type ProductSet struct {
	Blocks []*BoxBand
	dims   []int
	offs   []int // offs[k] is the start of block k; offs[len(Blocks)] == total
	total  int
}

// NewProductSet builds a product of blocks laid out consecutively.
func NewProductSet(blocks []*BoxBand) *ProductSet {
	p := &ProductSet{Blocks: blocks, offs: make([]int, len(blocks)+1)}
	for k, b := range blocks {
		p.dims = append(p.dims, len(b.Lo))
		p.total += len(b.Lo)
		p.offs[k+1] = p.total
	}
	return p
}

// Dim returns the total stacked dimension.
func (p *ProductSet) Dim() int { return p.total }

// Feasible reports whether every block is feasible.
func (p *ProductSet) Feasible() bool {
	for _, b := range p.Blocks {
		if !b.Feasible() {
			return false
		}
	}
	return true
}

// Stats sums the blocks' pass counts (see BoxBand.Stats).
func (p *ProductSet) Stats() ProjectionStats {
	var st ProjectionStats
	for _, b := range p.Blocks {
		st.Add(b.Stats())
	}
	return st
}

// Project projects x block-by-block in place.
func (p *ProductSet) Project(x linalg.Vector) {
	if len(x) != p.total {
		panic("solver: ProductSet Project dimension mismatch")
	}
	for k := range p.Blocks {
		p.Blocks[k].Project(x[p.offs[k]:p.offs[k+1]])
	}
}
