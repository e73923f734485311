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

// setBand moves the budget band to [sumLo, sumHi] in place, the residual
// band of an anchored set's other coordinates with it, and forgets the
// multipliers of the last projections.
func (b *BoxBand) setBand(sumLo, sumHi float64) {
	b.SumLo, b.SumHi, b.mu = sumLo, sumHi, 0
	if b.subA != nil {
		b.subA.mu = 0
		b.subO.SumLo, b.subO.SumHi, b.subO.mu = sumLo-b.anchorMin, sumHi-b.anchorMin, 0
	}
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

// clipSum returns g(μ) = Σ_i clip(y_i − μ, lo_i, hi_i), summed in index order,
// and the number of coordinates strictly between their bounds (−g's slope at
// μ). lo and hi are as long as y.
func clipSum(y, lo, hi linalg.Vector, mu float64) (s float64, free int) {
	lo, hi = lo[:len(y)], hi[:len(y)]
	for i, v := range y {
		z := v - mu
		if z < lo[i] {
			z = lo[i]
		} else if z > hi[i] {
			z = hi[i]
		} else if z != lo[i] && z != hi[i] {
			free++
		}
		s += z
	}
	return s, free
}

// certify adds what a real pass proved, g(mu) == sum, to projectPlain's
// certificate (gt, ub, eqHi, lt). The kernel only passes at a μ the
// certificate left open — gt < μ < lt — so the side that moves takes μ
// itself. A NaN sum (infinite terms of both signs) returns the empty
// certificate and off: it must not be consulted again.
func certify(gt, ub, eqHi, lt, mu, sum, target float64) (float64, float64, float64, float64, bool) {
	switch {
	case sum > target:
		return mu, ub, eqHi, lt, false
	case sum < target:
		return gt, min(ub, mu), eqHi, mu, false
	case sum == target:
		return gt, min(ub, mu), max(eqHi, mu), lt, false
	}
	inf := math.Inf(1)
	return -inf, inf, -inf, inf, true
}

// flatEnd is where the flat piece of g that a pass at μ = at saw ends on the
// root's side: the nearest μ at which a coordinate at a bound leaves it — the
// left end when g(at) == target, because that is where the bisection
// converges — and ±Inf when no coordinate can move.
func flatEnd(y, lo, hi linalg.Vector, at float64, above bool) float64 {
	lo, hi = lo[:len(y)], hi[:len(y)]
	if above {
		end := math.Inf(1)
		for i, v := range y {
			if v-at >= hi[i] && lo[i] < hi[i] {
				end = min(end, v-hi[i])
			}
		}
		return end
	}
	end := math.Inf(-1)
	for i, v := range y {
		if v-at <= lo[i] && lo[i] < hi[i] {
			end = max(end, v-lo[i])
		}
	}
	return end
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

// projectPlain is the anchor-free box∩band projection: the plain bisection
// on μ — bracket doubling, mid sequence, stop rule and write-back — with each
// query read from a certificate of what the real O(n) passes have proved, and
// a real pass only when the queried μ falls in the gap they left open.
//
// On an ordered box g is nonincreasing in μ as computed, not only in exact
// arithmetic: fl(y_i − μ) is, clipping to lo_i ≤ hi_i keeps it so, and the
// rounded sum of two nonincreasing terms is nonincreasing again (DESIGN.md
// §5). One evaluated pass therefore settles every μ on its far side:
//
//	μ ≤ gt          ⇒ g(μ) > target
//	ub ≤ μ          ⇒ g(μ) ≤ target (ub is the least μ seen at or below it)
//	eqHi ≥ μ ≥ ub   ⇒ g(μ) == target, when some pass hit the target
//	μ ≥ lt          ⇒ g(μ) < target
//
// off is set for a box that is not ordered and by a pass whose sum is NaN:
// the certificate is then empty, answers nothing, and every query is
// evaluated.
//
// Before bracketing, a few passes go where the root is likely to be, so that
// the bracket and bisection queries find their answers certified. They
// decide nothing — a pass only adds to the certificate what g proves at that
// μ — so neither the result nor its bits depend on how well they guess.
// Newton steps start from the multiplier of the set's previous projection
// (from μ = 0 when that one is already settled) and stop when the step leaves
// the open gap: g is piecewise linear, so a step taken on the root's piece
// lands within rounding of it. That pins one side of the root at the last
// pass; a probe walks outward from it, two rounding quanta first and 8×
// further each time, until the other side is pinned too.
func (b *BoxBand) projectPlain(y linalg.Vector) {
	lo, hi := b.Lo[:len(y)], b.Hi[:len(y)]
	s, free := clipSum(y, lo, hi, 0)
	var target float64
	switch {
	case s > b.SumHi:
		target = b.SumHi
	case s < b.SumLo:
		target = b.SumLo
	default:
		ProjectBox(y, lo, hi)
		return
	}
	inf := math.Inf(1)
	gt, ub, eqHi, lt := -inf, inf, -inf, inf
	off := !b.ordered
	if !off {
		if s > target {
			gt = 0
		} else {
			lt, ub = 0, 0
		}
	}
	passes, jumps := 1, 0

	if !off {
		const newtonPasses, probePasses = 6, 4
		at, sum, slope, next := 0.0, s, free, b.mu
		n := 0
		for {
			if n > 0 || !(next > gt && next < ub) {
				// The root of the linear piece of g the last pass saw. On a
				// flat piece, move to the piece's end on the root's side
				// first (a scan, counted as a pass) and assume slope −1.
				if slope > 0 {
					next = at + (sum-target)/float64(slope)
				} else {
					passes++
					next = flatEnd(y, lo, hi, at, sum > target) + (sum - target)
				}
			}
			if n == newtonPasses || off || !(next > gt && next < ub) {
				break
			}
			at = next
			passes++
			sum, slope = clipSum(y, lo, hi, at)
			gt, ub, eqHi, lt, off = certify(gt, ub, eqHi, lt, at, sum, target)
			n++
		}
		// Nowhere to look, or not converged: ulp-sized probes cannot help.
		if n > 0 && !off && !(next > gt && next < ub) {
			dir := -1.0
			if sum > target {
				dir = 1
			}
			// One quantum: an ulp of μ, or the change of μ that moves the sum
			// an ulp.
			d := 2 * (math.Abs(at) + math.Abs(target)/float64(max(slope, 1))) * 0x1p-52
			for k := 0; k < probePasses; k++ {
				at += float64(dir * d)
				if off || !(at > gt && at < ub) {
					break // the far side is already this close
				}
				passes++
				sum, _ = clipSum(y, lo, hi, at)
				gt, ub, eqHi, lt, off = certify(gt, ub, eqHi, lt, at, sum, target)
				if (sum > target) != (dir > 0) {
					break
				}
				d *= 8
			}
		}
	}

	// Bracket μ. g is nonincreasing in μ; find [muLo, muHi] such that
	// g(muLo) ≥ target ≥ g(muHi).
	muLo, muHi := 0.0, 0.0
	if s > target {
		// Need μ > 0. The largest useful μ drives everything to Lo.
		muHi = 1.0
		for {
			above := muHi <= gt
			if !above && muHi < ub {
				passes++
				sum, _ := clipSum(y, lo, hi, muHi)
				if !off {
					gt, ub, eqHi, lt, off = certify(gt, ub, eqHi, lt, muHi, sum, target)
				}
				above = sum > target
			}
			if !above {
				break
			}
			muHi *= 2
			if muHi > 1e18 {
				break
			}
		}
	} else {
		muLo = -1.0
		for {
			below := muLo >= lt
			if !below && muLo > max(gt, eqHi) {
				passes++
				sum, _ := clipSum(y, lo, hi, muLo)
				if !off {
					gt, ub, eqHi, lt, off = certify(gt, ub, eqHi, lt, muLo, sum, target)
				}
				below = sum < target
			}
			if !below {
				break
			}
			muLo *= 2
			if muLo < -1e18 {
				break
			}
		}
	}
	// Grid jump. The bracket is [0, 2^k] or [−2^k, 0] with k ≥ 0, so every mid
	// of the first 45 levels is a multiple of h = 2^(k−45) of magnitude at most
	// 2^k — computed exactly — and the stop rule cannot fire on a width ≥ h ≈
	// 2.8e-14·2^k against 1e-14·(1+|muLo|) ≤ 2e-14·2^k. The decisions are
	// monotone on that grid, so the first L ≤ 45 steps end on the one cell of
	// width 2^(k−L) whose left end is the bracket's or decides "above" and
	// whose right end is the bracket's or decides "not above". cell and cell+h
	// below are grid points whatever the rounding of the quotient; the
	// comparisons verify the rest (and fail for an empty certificate: gt =
	// −Inf). The jump tries L = 45 and, where a level-45 grid point splits the
	// certificate's gap, L = 40.
	iter := 0
	for _, jump := range [...]struct {
		levels int
		scale  float64 // 2^−levels
	}{{45, 0x1p-45}, {40, 0x1p-40}} {
		h := float64((muHi - muLo) * jump.scale)
		if cell := muLo + float64(h*math.Floor((gt-muLo)/h)); muLo <= cell && cell <= gt && ub <= cell+h && cell+h <= muHi {
			muLo, muHi, iter = cell, cell+h, jump.levels
			jumps = 1
			break
		}
	}
	for ; iter < b.maxBisectIters; iter++ {
		mid := float64(0.5 * (muLo + muHi))
		above := mid <= gt
		if !above && mid < ub {
			passes++
			sum, _ := clipSum(y, lo, hi, mid)
			if !off {
				gt, ub, eqHi, lt, off = certify(gt, ub, eqHi, lt, mid, sum, target)
			}
			above = sum > target
		}
		if above {
			muLo = mid
		} else {
			muHi = mid
		}
		if muHi-muLo < 1e-14*(1+math.Abs(muLo)) {
			break
		}
	}
	mu := float64(0.5 * (muLo + muHi))
	b.mu = mu
	b.stats.Projections++
	b.stats.Passes += passes
	b.stats.Jumps += jumps
	for i, v := range y {
		z := v - mu
		if z < lo[i] {
			z = lo[i]
		} else if z > hi[i] {
			z = hi[i]
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

// SetBand moves every block's budget band to [sumLo, sumHi] in place and
// forgets where the blocks' last projections ended: the set then projects
// exactly as fresh blocks NewBoxBand and WithAnchor would build with that
// band — pass counts included — but allocates nothing. A multiplier carried
// over from another solve is a poor first guess: the Newton steps it starts
// overshoot, and more projections bisect from level 0.
func (p *ProductSet) SetBand(sumLo, sumHi float64) {
	for _, b := range p.Blocks {
		b.setBand(sumLo, sumHi)
	}
}

// Dim returns the total stacked dimension.
func (p *ProductSet) Dim() int { return p.total }

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
	p.ProjectBlocks(x, 0, len(p.Blocks))
}

// ProjectBlocks projects blocks lo … hi−1 of the stacked x in place and
// leaves the rest of x alone. Blocks keep their own state, so calls over
// disjoint block ranges may run at once.
func (p *ProductSet) ProjectBlocks(x linalg.Vector, lo, hi int) {
	for k := lo; k < hi; k++ {
		p.Blocks[k].Project(x[p.offs[k]:p.offs[k+1]])
	}
}
