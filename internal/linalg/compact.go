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
// The operator reads the matrix it was built from on every call — no packed
// copy — so that matrix must not change while the operator is in use.
type Compact struct {
	m       *Matrix
	coupled []int // ascending
	iso     []int // ascending; coupled ∪ iso = [0, n)
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
	c := &Compact{m: m, coupled: make([]int, 0, k), iso: make([]int, 0, n-k)}
	for i, on := range isCoupled {
		if on {
			c.coupled = append(c.coupled, i)
		} else {
			c.iso = append(c.iso, i)
		}
	}
	return c, k
}

// MulVec computes dst = M·x and returns dst; shapes as (*Matrix).MulVec. x is
// read through the index list inside the loop: gathering it into scratch first
// would cost an allocation or shared state per call.
func (c *Compact) MulVec(x, dst Vector) Vector {
	n := c.m.Rows
	if len(x) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: Compact MulVec shape mismatch %d/%d vs %dx%d", len(x), len(dst), n, n))
	}
	c.mulIsolated(x, dst)
	for _, i := range c.coupled {
		row := c.m.Data[i*n : (i+1)*n]
		var s float64
		for _, j := range c.coupled {
			s += row[j] * x[j]
		}
		dst[i] = s
	}
	return dst
}

// mulIsolated writes the isolated outputs of one length-n block.
func (c *Compact) mulIsolated(x, dst Vector) {
	n := c.m.Rows
	for _, i := range c.iso {
		var s float64 // the dense sum starts at +0: a −0 product must read +0
		s += c.m.Data[i*n+i] * x[i]
		dst[i] = s
	}
}
