package solver

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
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

	// live is the bisection's index scratch (see projectPlain), allocated with
	// the set so Project stays allocation-free; stats counts its compactions.
	live  []int
	stats ProjectionStats
}

// ProjectionStats counts the work the projection bisections left out: every
// time a bisection compacts its live list, Scanned grows by the coordinates
// that were on the list and Kept by those that stayed. Kept/Scanned near 1
// (or no compaction at all) means dense iterates; a sparse portfolio reads
// well below ½.
type ProjectionStats struct {
	Compactions, Scanned, Kept int
}

// Add folds the counts of o into s.
func (s *ProjectionStats) Add(o ProjectionStats) {
	s.Compactions += o.Compactions
	s.Scanned += o.Scanned
	s.Kept += o.Kept
}

// since returns the counts accumulated after the earlier snapshot o.
func (s ProjectionStats) since(o ProjectionStats) ProjectionStats {
	return ProjectionStats{s.Compactions - o.Compactions, s.Scanned - o.Scanned, s.Kept - o.Kept}
}

// LiveShare is Kept/Scanned, and 1 when nothing was ever compacted.
func (s ProjectionStats) LiveShare() float64 {
	if s.Scanned == 0 {
		return 1
	}
	return float64(s.Kept) / float64(s.Scanned)
}

// NewBoxBand constructs the set; it panics on dimension mismatch and returns
// an unfeasible-set error through Feasible() rather than at construction.
func NewBoxBand(lo, hi linalg.Vector, sumLo, sumHi float64) *BoxBand {
	if len(lo) != len(hi) {
		panic("solver: BoxBand lo/hi length mismatch")
	}
	return &BoxBand{Lo: lo, Hi: hi, SumLo: sumLo, SumHi: sumHi, maxBisectIters: 100, live: make([]int, len(lo))}
}

// Stats returns the live-list counts of every projection run on this set so
// far, including the anchored sub-blocks.
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

// clipSum returns Σ_i clip(y_i − mu, lo_i, hi_i).
func (b *BoxBand) clipSum(y linalg.Vector, mu float64) float64 {
	var s float64
	for i, v := range y {
		z := v - mu
		if z < b.Lo[i] {
			z = b.Lo[i]
		} else if z > b.Hi[i] {
			z = b.Hi[i]
		}
		s += z
	}
	return s
}

// clipSumCount is clipSum that also counts the coordinates clipped to a zero
// lower bound — the ones a bisection whose muLo becomes mu can drop.
func (b *BoxBand) clipSumCount(y linalg.Vector, mu float64) (s float64, dead int) {
	for i, v := range y {
		z := v - mu
		if lo := b.Lo[i]; z < lo {
			z = lo
			if lo == 0 {
				dead++
			}
		} else if z > b.Hi[i] {
			z = b.Hi[i]
		}
		s += z
	}
	return s, dead
}

// clipSumLive is clipSumCount over the ascending index list live.
func (b *BoxBand) clipSumLive(y linalg.Vector, mu float64, live []int) (s float64, dead int) {
	for _, i := range live {
		z := y[i] - mu
		if lo := b.Lo[i]; z < lo {
			z = lo
			if lo == 0 {
				dead++
			}
		} else if z > b.Hi[i] {
			z = b.Hi[i]
		}
		s += z
	}
	return s, dead
}

// compact drops from live (nil: all coordinates) every index that clips to a
// zero Lo at muLo, in place in b.live, keeping ascending order.
func (b *BoxBand) compact(y linalg.Vector, muLo float64, live []int) []int {
	kept := b.live[:0]
	if live == nil {
		for i, v := range y {
			if !(b.Lo[i] == 0 && v-muLo < 0) {
				kept = append(kept, i)
			}
		}
	} else {
		for _, i := range live {
			if !(b.Lo[i] == 0 && y[i]-muLo < 0) {
				kept = append(kept, i)
			}
		}
	}
	return kept
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

// projectPlain is the anchor-free box∩band projection.
func (b *BoxBand) projectPlain(y linalg.Vector) {
	s := b.clipSum(y, 0)
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
	// Bracket μ. clipSum is nonincreasing in μ; find [muLo, muHi] such that
	// clipSum(muLo) ≥ target ≥ clipSum(muHi).
	muLo, muHi := 0.0, 0.0
	if s > target {
		// Need μ > 0. The largest useful μ drives everything to Lo.
		muHi = 1.0
		for b.clipSum(y, muHi) > target {
			muHi *= 2
			if muHi > 1e18 {
				break
			}
		}
	} else {
		muLo = -1.0
		for b.clipSum(y, muLo) < target {
			muLo *= 2
			if muLo < -1e18 {
				break
			}
		}
	}
	// The bisection sums only the coordinates that can still add a non-zero
	// term. A coordinate with Lo == 0 and y − muLo < 0 clips to ±0 at every
	// μ ≥ muLo — fl(y − μ) is nonincreasing in μ, and muLo only rises — and
	// ±0 cannot change a sum that started at +0, so leaving it out of the
	// ascending sum changes no bit (DESIGN.md §5). Each pass counts the
	// coordinates it clipped to a zero Lo; when the pass raises muLo and at
	// least half the list died, the list is compacted. Every compaction at
	// least halves the list, so all of them together cost under two plain
	// passes, and iterates with no such coordinates never leave the plain loop.
	var live []int // nil: every coordinate is still summed
	nLive := len(y)
	for iter := 0; iter < b.maxBisectIters; iter++ {
		mid := 0.5 * (muLo + muHi)
		var sum float64
		var dead int
		if live == nil {
			sum, dead = b.clipSumCount(y, mid)
		} else {
			sum, dead = b.clipSumLive(y, mid, live)
		}
		if sum > target {
			muLo = mid
			if dead > 0 && 2*dead >= nLive {
				live = b.compact(y, muLo, live)
				b.stats.Compactions++
				b.stats.Scanned += nLive
				b.stats.Kept += len(live)
				nLive = len(live)
			}
		} else {
			muHi = mid
		}
		if muHi-muLo < 1e-14*(1+math.Abs(muLo)) {
			break
		}
	}
	mu := 0.5 * (muLo + muHi)
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

// Stats sums the blocks' live-list counts (see BoxBand.Stats).
func (p *ProductSet) Stats() ProjectionStats {
	var st ProjectionStats
	for _, b := range p.Blocks {
		st.Add(b.Stats())
	}
	return st
}

// Project projects x block-by-block in place.
func (p *ProductSet) Project(x linalg.Vector) {
	p.ProjectWith(parallel.Serial, x)
}

// ProjectWith projects x in place, running the per-period block projections
// concurrently on the given pool. Blocks touch disjoint slices of x and each
// block's bisection is deterministic, so the result is identical to the
// serial Project for any pool width.
func (p *ProductSet) ProjectWith(pool *parallel.Pool, x linalg.Vector) {
	if len(x) != p.total {
		panic("solver: ProductSet Project dimension mismatch")
	}
	if pool.Workers() <= 1 {
		// Serial fast path before the closure literal: projections run every
		// solver iteration, and the escaping closure below would otherwise
		// cost a heap allocation per call.
		for k := range p.Blocks {
			p.Blocks[k].Project(x[p.offs[k]:p.offs[k+1]])
		}
		return
	}
	pool.For(len(p.Blocks), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p.Blocks[k].Project(x[p.offs[k]:p.offs[k+1]])
		}
	})
}
