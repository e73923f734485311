package linalg

import "fmt"

// StackedMatVec is a MatVec that can apply its matrix to several vectors laid
// end to end while reading the matrix once. The horizon-stacked risk Hessian
// is H copies of one M, so a per-period MulVec streams M through the cache H
// times per solver iteration; *Matrix and *Compact implement the stacked form.
type StackedMatVec interface {
	MatVec
	// MulVecStacked computes dst_p = M·x_p for every length-n block p of x
	// (len(x) == len(dst) == h·n) and returns dst. Every output element is
	// bit-identical to the one MulVec writes for its block.
	MulVecStacked(x, dst Vector) Vector
}

// MulVecStacked applies the n×n operator m to every length-n block of x: in
// one call when m implements StackedMatVec, block by block otherwise (*CSR,
// *FactorModel).
func MulVecStacked(m MatVec, n int, x, dst Vector) Vector {
	if s, ok := m.(StackedMatVec); ok {
		return s.MulVecStacked(x, dst)
	}
	for off := 0; off < len(x); off += n {
		m.MulVec(x[off:off+n], dst[off:off+n])
	}
	return dst
}

// stackedBlocks returns h for operands of h blocks each, panicking when x is
// not h blocks of cols and dst h blocks of rows for one h ≥ 1.
func stackedBlocks(x, dst Vector, rows, cols int) int {
	if rows > 0 && cols > 0 {
		if h := len(x) / cols; h >= 1 && h*cols == len(x) && h*rows == len(dst) {
			return h
		}
	}
	panic(fmt.Sprintf("linalg: MulVecStacked shape mismatch %d/%d vs %dx%d", len(x), len(dst), rows, cols))
}

// MulVecStacked implements StackedMatVec. Four blocks share a pass over the
// row — blocking across outputs only (DESIGN.md §5): each output keeps its own
// accumulator over the columns in ascending order, and the four independent
// chains fill the add pipeline one chain leaves idle.
func (m *Matrix) MulVecStacked(x, dst Vector) Vector {
	h := stackedBlocks(x, dst, m.Rows, m.Cols)
	if h == 1 {
		return m.MulVec(x, dst)
	}
	r, c := m.Rows, m.Cols
	for i := 0; i < r; i++ {
		row := m.Data[i*c : (i+1)*c]
		p := 0
		for ; p+4 <= h; p += 4 {
			x0, x1 := x[p*c:(p+1)*c], x[(p+1)*c:(p+2)*c]
			x2, x3 := x[(p+2)*c:(p+3)*c], x[(p+3)*c:(p+4)*c]
			var s0, s1, s2, s3 float64
			for j, a := range row {
				s0 += a * x0[j]
				s1 += a * x1[j]
				s2 += a * x2[j]
				s3 += a * x3[j]
			}
			dst[p*r+i], dst[(p+1)*r+i], dst[(p+2)*r+i], dst[(p+3)*r+i] = s0, s1, s2, s3
		}
		if p+2 <= h {
			x0, x1 := x[p*c:(p+1)*c], x[(p+1)*c:(p+2)*c]
			var s0, s1 float64
			for j, a := range row {
				s0 += a * x0[j]
				s1 += a * x1[j]
			}
			dst[p*r+i], dst[(p+1)*r+i] = s0, s1
			p += 2
		}
		if p < h {
			x0 := x[p*c : (p+1)*c]
			var s0 float64
			for j, a := range row {
				s0 += a * x0[j]
			}
			dst[p*r+i] = s0
		}
	}
	return dst
}

// MulVecStacked implements StackedMatVec; see (*Matrix).MulVecStacked for the
// blocking and (*Compact).MulVec for why x is read through the index list.
func (c *Compact) MulVecStacked(x, dst Vector) Vector {
	n := c.m.Rows
	h := stackedBlocks(x, dst, n, n)
	if h == 1 {
		return c.MulVec(x, dst)
	}
	for p := 0; p < h; p++ {
		c.mulIsolated(x[p*n:(p+1)*n], dst[p*n:(p+1)*n])
	}
	for _, i := range c.coupled {
		row := c.m.Data[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= h; p += 4 {
			x0, x1 := x[p*n:(p+1)*n], x[(p+1)*n:(p+2)*n]
			x2, x3 := x[(p+2)*n:(p+3)*n], x[(p+3)*n:(p+4)*n]
			var s0, s1, s2, s3 float64
			for _, j := range c.coupled {
				a := row[j]
				s0 += a * x0[j]
				s1 += a * x1[j]
				s2 += a * x2[j]
				s3 += a * x3[j]
			}
			dst[p*n+i], dst[(p+1)*n+i], dst[(p+2)*n+i], dst[(p+3)*n+i] = s0, s1, s2, s3
		}
		if p+2 <= h {
			x0, x1 := x[p*n:(p+1)*n], x[(p+1)*n:(p+2)*n]
			var s0, s1 float64
			for _, j := range c.coupled {
				a := row[j]
				s0 += a * x0[j]
				s1 += a * x1[j]
			}
			dst[p*n+i], dst[(p+1)*n+i] = s0, s1
			p += 2
		}
		if p < h {
			x0 := x[p*n : (p+1)*n]
			var s0 float64
			for _, j := range c.coupled {
				s0 += row[j] * x0[j]
			}
			dst[p*n+i] = s0
		}
	}
	return dst
}
