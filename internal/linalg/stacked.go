package linalg

import "fmt"

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

// MulVecStacked implements MatVec; a dense matrix needs no scratch.
func (m *Matrix) MulVecStacked(x, dst Vector, _ *Scratch) Vector {
	m.mulBlocks(x, dst, stackedBlocks(x, dst, m.Rows, m.Cols), 0)
	return dst
}

// mulBlocks is the scalar dense matvec kernel: rows lo.. of dst_p = m·x_p for
// the h blocks of x (length Cols each) and dst (length Rows each), shapes
// unchecked. A pass over the columns carries two rows × two blocks — four
// outputs, each in its own accumulator Σ_j M_ij·x_pj in ascending j from +0,
// so the sums are the one-row loop's (DESIGN.md §5, "blocking only across
// outputs"). The pair shares each x load, and four independent chains keep
// the adder busy. An odd last block runs the row pair alone; an odd last row
// pairs with itself, its second accumulators repeating the first bit for bit
// into the same outputs. Every product is an explicit float64(a*b): the Go
// spec then forbids fusing it with the sum, so arm64 rounds as amd64 does.
func (m *Matrix) mulBlocks(x, dst Vector, h, lo int) {
	r, c := m.Rows, m.Cols
	for i := lo; i < r; i += 2 {
		i1 := min(i+1, r-1)
		r0 := m.Data[i*c : (i+1)*c]
		r1 := m.Data[i1*c:][:len(r0)]
		p := 0
		for ; p+2 <= h; p += 2 {
			x0, x1 := x[p*c:][:len(r0)], x[(p+1)*c:][:len(r0)]
			var s00, s01, s10, s11 float64
			for j, a := range r0 {
				b, u, v := r1[j], x0[j], x1[j]
				s00 += float64(a * u)
				s01 += float64(a * v)
				s10 += float64(b * u)
				s11 += float64(b * v)
			}
			dst[p*r+i], dst[p*r+i1], dst[(p+1)*r+i], dst[(p+1)*r+i1] = s00, s10, s01, s11
		}
		if p < h {
			x0 := x[p*c:][:len(r0)]
			var s0, s1 float64
			for j, a := range r0 {
				u := x0[j]
				s0 += float64(a * u)
				s1 += float64(r1[j] * u)
			}
			dst[p*r+i], dst[p*r+i1] = s0, s1
		}
	}
}

// MulVecStacked implements MatVec; see (*Compact).MulVec.
func (c *Compact) MulVecStacked(x, dst Vector, s *Scratch) Vector {
	c.mul(x, dst, stackedBlocks(x, dst, c.n, c.n), s)
	return dst
}
