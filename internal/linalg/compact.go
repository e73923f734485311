package linalg

import (
	"fmt"
	"math"
)

// MatVec is the view of a square matrix the optimizer's risk term needs: its
// order, its product with a vector, and its product with several vectors laid
// end to end. *Matrix and *Compact satisfy it.
type MatVec interface {
	Dim() int
	MulVec(x, dst Vector) Vector
	// MulVecStacked computes dst_p = M·x_p for every length-n block p of x
	// (len(x) == len(dst) == h·n) and returns dst, reading M once: the
	// horizon-stacked risk Hessian is H copies of one M, and a per-period
	// MulVec would stream M through the cache H times per solver iteration.
	// Every output element is bit-identical to the one MulVec writes for its
	// block.
	MulVecStacked(x, dst Vector) Vector
}

// Compact applies a bitwise-symmetric dense matrix while skipping its isolated
// indices — those whose row (and so column) is exactly zero off the diagonal.
// The covariance of revocation dynamics has one such index per on-demand
// market, so half of a typical catalog's matvec multiplies exact zeros.
//
// MulVec is bit-identical to (*Matrix).MulVec for finite x (DESIGN.md §5,
// "Kernel contract"): a coupled output keeps one accumulator summed over the
// coupled columns in ascending order, and the terms left out are ±0, which
// cannot change a sum that started at +0; an isolated output is 0 + M_ii·x_i.
// A non-finite x breaks the equivalence (0·∞ is NaN in the dense sum).
//
// The coupled block's rows are its columns, so its full 8-row chunks run the
// lane kernel (lanes.go) down the columns; the leftover rows and a block
// without a full chunk run (*Matrix).mulBlocks. With isolated indices the
// operator holds a packed copy of the coupled block; with none it runs over
// the matrix itself, without a copy. Either way it lives for one solve: the
// matrix must not change while the operator is in use. It also owns the
// scratch its calls gather x into and compute in: one Compact serves one
// goroutine at a time.
type Compact struct {
	n       int
	block   Matrix    // the k×k coupled block: packed, or the matrix itself when k == n
	coupled []int     // ascending
	iso     []int     // ascending; coupled ∪ iso = [0, n)
	isoDiag []float64 // M_ii of iso[t]
	scratch Vector    // gathered x, then block·x: 2·h·k, grown to the largest h seen
	at      []int     // at[p·k+t] = p·n + coupled[t], for the h of the last call
}

// CompactRisk scans the square matrix m once for isolated indices and returns
// the cheapest exact way to apply it, with the number of coupled indices. A
// matrix that is not bitwise symmetric, or that isolates nothing and has
// fewer than 8 rows for the lanes, is returned itself (coupled == m.Rows) and
// callers run exactly the dense code; a symmetric m that isolates nothing
// gets an operator over m's own storage.
func CompactRisk(m *Matrix) (MatVec, int) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: CompactRisk of non-square %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	isCoupled, k, ok := scanSymmetric(m, nil, n)
	if !ok {
		return m, n
	}
	if k == n {
		if n < 8 {
			return m, n
		}
		return &Compact{n: n, block: *m}, n
	}
	c := newCompact(isCoupled, k, nil)
	for i := range c.iso {
		c.isoDiag[i] = m.Data[c.iso[i]*n+c.iso[i]]
	}
	for s, i := range c.coupled {
		row, packed := m.Data[i*n:(i+1)*n], c.block.Data[s*k:(s+1)*k]
		for t, j := range c.coupled {
			packed[t] = row[j]
		}
	}
	return c, k
}

// scanSymmetric reports whether the square block equals its transpose in
// every bit and, when it does, which of the n indices it couples, and how
// many: both indices of every non-zero entry off the diagonal (NaN != 0, so a
// non-finite entry couples), block position a being index idx[a] — or a
// itself when idx is nil.
func scanSymmetric(block *Matrix, idx []int, n int) ([]bool, int, bool) {
	k := block.Rows
	isCoupled, kc := make([]bool, n), 0
	mark := func(i int) {
		if !isCoupled[i] {
			isCoupled[i] = true
			kc++
		}
	}
	for a := 0; a < k; a++ {
		row := block.Data[a*k : (a+1)*k]
		for b := a + 1; b < k; b++ {
			v := row[b]
			if math.Float64bits(v) != math.Float64bits(block.Data[b*k+a]) {
				return nil, 0, false
			}
			if v == 0 {
				continue
			}
			if idx == nil {
				mark(a)
				mark(b)
			} else {
				mark(idx[a])
				mark(idx[b])
			}
		}
	}
	return isCoupled, kc, true
}

// CompactBlock returns what CompactRisk returns for the n×n matrix M that
// holds the bitwise-symmetric k×k block at the rows and columns idx
// (ascending, k = len(idx)), diag on the rest of its diagonal and zeros
// everywhere else — the same operator, coupled set and count, without forming
// M. A covariance of revocation dynamics is such a matrix: the block over the
// transient markets plus a ridge, one value written to (i, j) and (j, i). An
// asymmetric block panics. The operator may keep block's storage, so the
// caller hands the block over.
func CompactBlock(n int, idx []int, block *Matrix, diag float64) (MatVec, int) {
	k := len(idx)
	if block.Rows != k || block.Cols != k || k > n {
		panic(fmt.Sprintf("linalg: CompactBlock of a %dx%d block over %d of %d indices", block.Rows, block.Cols, k, n))
	}
	isCoupled, kc, ok := scanSymmetric(block, idx, n)
	if !ok {
		panic(fmt.Sprintf("linalg: CompactBlock of an asymmetric %dx%d block", k, k))
	}
	if k == n { // idx is every index: M is the block
		return CompactRisk(block)
	}
	var packed []float64
	if kc == k { // every block index is coupled: the block is the packed block
		packed = block.Data
	}
	c := newCompact(isCoupled, kc, packed)
	for t, a := 0, 0; t < len(c.iso); t++ {
		i := c.iso[t]
		for a < k && idx[a] < i {
			a++
		}
		if c.isoDiag[t] = diag; a < k && idx[a] == i {
			c.isoDiag[t] = block.Data[a*k+a]
		}
	}
	if packed == nil {
		// at[t] is the block position of coupled index t, in ascending order.
		at := make([]int, 0, kc)
		for a, i := range idx {
			if isCoupled[i] {
				at = append(at, a)
			}
		}
		for s, a := range at {
			row, packed := block.Data[a*k:(a+1)*k], c.block.Data[s*kc:(s+1)*kc]
			for t, b := range at {
				packed[t] = row[b]
			}
		}
	}
	return c, kc
}

// newCompact returns the operator over the indices isCoupled splits, k of
// them coupled: the ascending index lists, an isolated diagonal for the caller
// to fill and the k×k packed block — block when it is given, zeros to fill
// otherwise. One allocation holds both index lists, one the packed block and
// the isolated diagonal: a what-if sweep builds an operator per solve.
func newCompact(isCoupled []bool, k int, block []float64) *Compact {
	n := len(isCoupled)
	size := n - k
	if block == nil {
		size += k * k
	}
	idx, vals := make([]int, n), make([]float64, size)
	if block == nil {
		block, vals = vals[n-k:], vals[:n-k]
	}
	c := &Compact{
		n: n, block: Matrix{Rows: k, Cols: k, Data: block},
		coupled: idx[:0:k], iso: idx[k:k], isoDiag: vals,
	}
	for i, on := range isCoupled {
		if on {
			c.coupled = append(c.coupled, i)
		} else {
			c.iso = append(c.iso, i)
		}
	}
	return c
}

// Coupled returns the number of indices the operator multiplies through its
// coupled block: n less the isolated ones.
func (c *Compact) Coupled() int { return c.n - len(c.iso) }

// Dim returns n.
func (c *Compact) Dim() int { return c.n }

// MulVec computes dst = M·x and returns dst; shapes as (*Matrix).MulVec.
func (c *Compact) MulVec(x, dst Vector) Vector {
	if len(x) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("linalg: Compact MulVec shape mismatch %d/%d vs %dx%d", len(x), len(dst), c.n, c.n))
	}
	c.mul(x, dst, 1)
	return dst
}

// mul applies the operator to the h length-n blocks of x: the isolated outputs
// one product each, the coupled ones by gathering every block's coupled x into
// scratch, running the packed block through the kernels and scattering the
// results back. One index list over all h blocks keeps the gather and the
// scatter one loop each, which is what a 6-market what-if cell pays for; a
// block without a full lane chunk goes straight to mulBlocks. With nothing
// isolated the block is the matrix and runs on x and dst directly.
func (c *Compact) mul(x, dst Vector, h int) {
	if len(c.iso) == 0 { // the block is the matrix itself, with 8 rows or more
		c.block.mulSym(x, dst, h)
		return
	}
	n, coupled, iso, diag := c.n, c.coupled, c.iso, c.isoDiag[:len(c.iso)]
	for p := 0; p < h; p++ {
		xb, db := x[p*n:(p+1)*n], dst[p*n:(p+1)*n]
		for t, i := range iso {
			var s float64 // the dense sum starts at +0: a −0 product must read +0
			s += float64(diag[t] * xb[i])
			db[i] = s
		}
	}
	if k := len(coupled); len(c.at) != h*k {
		if len(c.scratch) < 2*h*k {
			c.scratch = NewVector(2 * h * k)
		}
		c.at = c.at[:0]
		for p := 0; p < h; p++ {
			for _, j := range coupled {
				c.at = append(c.at, p*n+j)
			}
		}
	}
	at := c.at
	xs, ys := c.scratch[:len(at)], c.scratch[len(at):2*len(at)]
	for q, j := range at {
		xs[q] = x[j]
	}
	if c.block.Rows < 8 {
		c.block.mulBlocks(xs, ys, h, 0)
	} else {
		c.block.mulSym(xs, ys, h)
	}
	for q, i := range at {
		dst[i] = ys[q]
	}
}

// mulSym computes dst_p = m·x_p for the h blocks of the symmetric k×k m: the
// full 8-row chunks through the lane kernel where the CPU has it, four blocks
// per pass, then a last pair, then a last block paired with itself
// (xoff = 0) — lane l of the chunk at row c sums M_j,c+l·x_pj = M_c+l,j·x_pj
// down the columns, in ascending j — and every other row through mulBlocks.
func (m *Matrix) mulSym(x, dst Vector, h int) {
	k, end := m.Rows, 0
	if useLanes {
		end = k &^ 7
	}
	var out [32]float64
	for c := 0; c < end; c += 8 {
		a := m.Data[c:]
		p := 0
		for ; p+4 <= h; p += 4 {
			lanes8x4(a, k, x[p*k:], 1, k, k, &out)
			for q := 0; q < 4; q++ {
				copy(dst[(p+q)*k+c:][:8], out[8*q:])
			}
		}
		for ; p < h; p += 2 {
			pass := min(h-p, 2)
			lanes8x2(a, k, x[p*k:], 1, (pass-1)*k, k, (*[16]float64)(out[:16]))
			for q := 0; q < pass; q++ {
				copy(dst[(p+q)*k+c:][:8], out[8*q:])
			}
		}
	}
	m.mulBlocks(x, dst, h, end)
}
