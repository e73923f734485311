package linalg

import "fmt"

// MatVec is the one-method view of a square matrix the optimizer's risk term
// needs. *Matrix, *CSR, *FactorModel and *Compact all satisfy it.
type MatVec interface {
	MulVec(x, dst Vector) Vector
}

// Compact applies a dense square matrix while skipping its isolated indices —
// those whose row AND column are exactly zero off the diagonal. The covariance
// of revocation dynamics has one such index per on-demand market, so half of
// a typical catalog's matvec multiplies exact zeros.
//
// MulVec is bit-identical to (*Matrix).MulVec for finite x (DESIGN.md §5,
// "Kernel contract"): a coupled output keeps one accumulator summed over the
// coupled columns in ascending order, and the terms left out are ±0, which
// cannot change a sum that started at +0; an isolated output is 0 + M_ii·x_i.
// A non-finite x breaks the equivalence (0·∞ is NaN in the dense sum).
//
// The operator holds a packed copy of the coupled block, so the matrix it was
// built from may change afterwards. It also owns the scratch its calls gather
// x into and compute in: one Compact serves one goroutine at a time.
type Compact struct {
	n       int
	block   Matrix    // the k×k coupled block, packed
	coupled []int     // ascending
	iso     []int     // ascending; coupled ∪ iso = [0, n)
	isoDiag []float64 // M_ii of iso[t]
	scratch Vector    // gathered x, then block·x: 2·h·k, grown to the largest h seen
	at      []int     // at[p·k+t] = p·n + coupled[t], for the h of the last call
}

// CompactRisk scans the square matrix m once for isolated indices and returns
// the cheapest exact way to apply it, with the number of coupled indices. When
// nothing is isolated that is m itself (coupled == m.Rows): callers then run
// exactly the dense code.
func CompactRisk(m *Matrix) (MatVec, int) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: CompactRisk of non-square %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	isCoupled := make([]bool, n)
	k := 0
	mark := func(i int) {
		if !isCoupled[i] {
			isCoupled[i] = true
			k++
		}
	}
	for i := 0; i < n && k < n; i++ {
		for j, a := range m.Data[i*n : (i+1)*n] {
			// NaN != 0, so a non-finite entry couples its indices.
			if a != 0 && j != i {
				mark(i) // row i is non-zero
				mark(j) // column j is non-zero
			}
		}
	}
	if k == n {
		return m, n
	}
	// One allocation holds both index lists, one the packed block and the
	// isolated diagonal: a what-if sweep builds an operator per solve.
	idx, vals := make([]int, n), make([]float64, k*k+n-k)
	c := &Compact{
		n: n, block: Matrix{Rows: k, Cols: k, Data: vals[:k*k]},
		coupled: idx[:0:k], iso: idx[k:k], isoDiag: vals[k*k : k*k],
	}
	for i, on := range isCoupled {
		if on {
			c.coupled = append(c.coupled, i)
		} else {
			c.iso = append(c.iso, i)
			c.isoDiag = append(c.isoDiag, m.Data[i*n+i])
		}
	}
	for s, i := range c.coupled {
		row, packed := m.Data[i*n:(i+1)*n], c.block.Data[s*k:(s+1)*k]
		for t, j := range c.coupled {
			packed[t] = row[j]
		}
	}
	return c, k
}

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
// scratch, running the packed block through the dense kernel and scattering
// the results back. One index list over all h blocks keeps the gather and the
// scatter one loop each, which is what a 6-market what-if cell pays for.
func (c *Compact) mul(x, dst Vector, h int) {
	n, coupled, iso, diag := c.n, c.coupled, c.iso, c.isoDiag[:len(c.iso)]
	for p := 0; p < h; p++ {
		xb, db := x[p*n:(p+1)*n], dst[p*n:(p+1)*n]
		for t, i := range iso {
			var s float64 // the dense sum starts at +0: a −0 product must read +0
			s += diag[t] * xb[i]
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
	c.block.mulBlocks(xs, ys, h)
	for q, i := range at {
		dst[i] = ys[q]
	}
}
