package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// isolate zeroes row and column i of m off the diagonal.
func isolate(m *Matrix, idx ...int) {
	for _, i := range idx {
		for j := 0; j < m.Rows; j++ {
			if j != i {
				m.Set(i, j, 0)
				m.Set(j, i, 0)
			}
		}
	}
}

// checkCompactBits applies m through refMulVec and through CompactRisk, with
// every body this CPU has (avx512, avx2, scalar), and fails on any differing
// bit; it
// returns the operator and its coupled count.
func checkCompactBits(t *testing.T, m *Matrix, x Vector) (MatVec, int) {
	t.Helper()
	n := m.Rows
	want := refMulVec(m, x, NewVector(n))
	op, k := CompactRisk(m)
	forEachLaneBody(t, func(body string) {
		got := NewVector(n)
		for i := range got {
			got[i] = math.NaN() // every output must be written
		}
		op.MulVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s output %d: compact %v (%#x) != dense %v (%#x), coupled=%d/%d",
					body, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), k, n)
			}
		}
	})
	return op, k
}

// signedVector has negative entries and a −0 at every third index.
func signedVector(rng *rand.Rand, n int) Vector {
	x := NewVector(n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i%3 == 0 {
			x[i] = math.Copysign(0, -1)
		}
	}
	return x
}

func TestBitIdenticalCompactRisk(t *testing.T) {
	logLaneBodies(t)
	rng := rand.New(rand.NewSource(14))
	odd := func(n int) (idx []int) {
		for i := 1; i < n; i += 2 {
			idx = append(idx, i)
		}
		return idx
	}
	cases := []struct {
		name    string
		n       int
		iso     []int
		coupled int
	}{
		{"interleaved", 12, odd(12), 6},
		{"leading", 9, []int{0, 1, 2}, 6},
		{"trailing", 9, []int{6, 7, 8}, 6},
		{"all-isolated", 7, []int{0, 1, 2, 3, 4, 5, 6}, 0},
		{"n=1", 1, nil, 0},
		{"two-coupled", 5, []int{0, 2, 4}, 2}, // the smallest block: one coupled index cannot exist
		{"n=288-half", 288, odd(288), 144},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := randomSPD(rng, tc.n)
			isolate(m, tc.iso...)
			// A −0 off the diagonal, mirrored to keep m symmetric, is still
			// an exact zero; a negative diagonal on an isolated index makes
			// −0 products with +0 inputs.
			if len(tc.iso) > 0 && tc.n > 1 {
				i := tc.iso[0]
				m.Set(i, (i+1)%tc.n, math.Copysign(0, -1))
				m.Set((i+1)%tc.n, i, math.Copysign(0, -1))
				m.Set(i, i, -m.At(i, i))
			}
			for trial := 0; trial < 4; trial++ {
				x := signedVector(rng, tc.n)
				if trial == 3 {
					x.Zero() // all +0: isolated outputs are (−d)·(+0) = −0 → +0
				}
				_, k := checkCompactBits(t, m, x)
				if k != tc.coupled {
					t.Fatalf("coupled = %d, want %d", k, tc.coupled)
				}
			}
		})
	}

	t.Run("none-isolated-same-pointer", func(t *testing.T) {
		// Nothing isolated: a symmetric matrix with a full lane chunk gets an
		// operator over its own storage, no copy; one without a chunk or
		// without symmetry is returned itself, for the dense code.
		m := randomSPD(rng, 10)
		op, k := CompactRisk(m)
		if c, ok := op.(*Compact); !ok || &c.block.Data[0] != &m.Data[0] || k != 10 {
			t.Fatalf("CompactRisk of a dense symmetric matrix = %T (coupled %d), want an operator over the matrix itself", op, k)
		}
		small := randomSPD(rng, 7)
		m.Set(3, 4, m.At(3, 4)+1)
		for _, dense := range []*Matrix{small, m} {
			if op, k := CompactRisk(dense); op != MatVec(dense) || k != dense.Rows {
				t.Fatalf("CompactRisk of a dense %dx%d matrix = %T (coupled %d), want the matrix itself", dense.Rows, dense.Rows, op, k)
			}
		}
	})

	t.Run("zero-row-nonzero-column-is-coupled", func(t *testing.T) {
		// Index 2's row is zero off the diagonal but x_2 feeds rows 0 and 4;
		// index 3's column is zero but output 3 reads x_1. Both are coupled —
		// as is every index, 5 too: an asymmetric matrix is returned itself,
		// for the dense code.
		m := randomSPD(rng, 6)
		isolate(m, 2, 3, 5)
		m.Set(0, 2, 0.25)
		m.Set(4, 2, -1.5)
		m.Set(3, 1, 0.75)
		op, k := checkCompactBits(t, m, signedVector(rng, 6))
		if op != MatVec(m) || k != 6 {
			t.Fatalf("CompactRisk of an asymmetric matrix = %T (coupled %d), want the matrix itself", op, k)
		}
	})
}

func TestCompactRiskShapePanics(t *testing.T) {
	m := identity(4)
	m.Set(0, 1, 1)
	op, _ := CompactRisk(m)
	for name, fn := range map[string]func(){
		"non-square": func() { CompactRisk(NewMatrix(2, 3)) },
		"short-x":    func() { op.MulVec(NewVector(3), NewVector(4)) },
		"short-dst":  func() { op.MulVec(NewVector(4), NewVector(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCompactMulVecAllocFree: the operator runs every solver iteration.
func TestCompactMulVecAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randomSPD(rng, 40)
	isolate(m, 1, 5, 9, 30)
	op, _ := CompactRisk(m)
	x, dst := signedVector(rng, 40), NewVector(40)
	if a := testing.AllocsPerRun(50, func() { op.MulVec(x, dst) }); a != 0 {
		t.Fatalf("Compact.MulVec allocates %v objects per call", a)
	}
	if a := testing.AllocsPerRun(50, func() { m.MulVec(x, dst) }); a != 0 {
		t.Fatalf("Matrix.MulVec allocates %v objects per call", a)
	}
}

// FuzzCompactRisk builds a matrix with an arbitrary zero pattern from the
// input — mirrored to a symmetric one, which runs the lanes, when n's top bit
// is set — and checks the compact operator's MulVec, and the stacked apply of
// the matrix and of the operator over h = 1..7 periods (mask bits 12–15),
// against refMulVec bit for bit with every body (avx512, avx2, scalar).
func FuzzCompactRisk(f *testing.F) {
	f.Add(uint8(6), uint16(0b101010), []byte("spotweb on-demand twins"))
	f.Add(uint8(1), uint16(1), []byte{})
	f.Add(uint8(9), uint16(0), []byte{0xff, 0x00, 0x80, 0x7f, 0x01})
	f.Add(uint8(12), uint16(0xffff), []byte{0x80, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(0x80|17), uint16(0x5005), []byte("a symmetric block of two lane chunks"))
	f.Fuzz(func(t *testing.T, n uint8, mask uint16, data []byte) {
		nn := int(n&0x7f) % 19
		if nn == 0 {
			return
		}
		pos := 0
		next := func() float64 {
			var buf [8]byte
			if pos < len(data) {
				pos += copy(buf[:], data[pos:])
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = float64(buf[0])/255 - 0.5 // the contract covers finite operands only
			}
			return v
		}
		m := NewMatrix(nn, nn)
		for i := range m.Data {
			m.Data[i] = next()
		}
		if n&0x80 != 0 {
			for i := 0; i < nn; i++ {
				for j := 0; j < i; j++ {
					m.Set(i, j, m.At(j, i))
				}
			}
		}
		for i := 0; i < nn && i < 12; i++ {
			if mask&(1<<i) != 0 {
				isolate(m, i)
			}
		}
		h := 1 + int(mask>>12)%7
		x := NewVector(nn * h)
		for i := range x {
			x[i] = next()
		}
		op, _ := checkCompactBits(t, m, x[:nn])
		checkStackedBits(t, "matrix", m, m, x, h)
		checkStackedBits(t, "compact", m, op, x, h)
	})
}

// sameOperator fails unless got and want are the same operator: the same type
// and, for a *Compact, the same coupled and isolated lists, isolated diagonal
// and packed block, every float bit for bit.
func sameOperator(t *testing.T, got, want MatVec) {
	t.Helper()
	sameBits := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, want %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	sameInts := func(what string, a, b []int) {
		if len(a) != len(b) {
			t.Fatalf("%s = %v, want %v", what, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s = %v, want %v", what, a, b)
			}
		}
	}
	switch w := want.(type) {
	case *Matrix:
		g, ok := got.(*Matrix)
		if !ok || g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("operator is %T, want the %dx%d matrix", got, w.Rows, w.Cols)
		}
		sameBits("matrix", g.Data, w.Data)
	case *Compact:
		g, ok := got.(*Compact)
		if !ok {
			t.Fatalf("operator is %T, want a *Compact", got)
		}
		if g.n != w.n || g.block.Rows != w.block.Rows || g.block.Cols != w.block.Cols {
			t.Fatalf("operator n=%d block %dx%d, want n=%d block %dx%d",
				g.n, g.block.Rows, g.block.Cols, w.n, w.block.Rows, w.block.Cols)
		}
		sameInts("coupled", g.coupled, w.coupled)
		sameInts("iso", g.iso, w.iso)
		sameBits("isoDiag", g.isoDiag, w.isoDiag)
		sameBits("block", g.block.Data, w.block.Data)
	default:
		t.Fatalf("reference operator is %T", want)
	}
}

// scatterBlock is the n×n matrix CompactBlock stands for: block at the rows
// and columns idx, diag on the rest of the diagonal, zeros elsewhere.
func scatterBlock(n int, idx []int, block *Matrix, diag float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, diag)
	}
	for a, i := range idx {
		for b, j := range idx {
			m.Set(i, j, block.At(a, b))
		}
	}
	return m
}

// checkCompactBlock holds CompactBlock to CompactRisk of the matrix it stands
// for — same operator, same coupled count — and the stacked apply of the
// block-built operator over h = 1..7 periods to refMulVec, with every body.
func checkCompactBlock(t *testing.T, n int, idx []int, block *Matrix, diag float64, x Vector) int {
	t.Helper()
	dense := scatterBlock(n, idx, block, diag)
	want, wantK := CompactRisk(dense)
	own := &Matrix{Rows: block.Rows, Cols: block.Cols, Data: append([]float64(nil), block.Data...)}
	got, k := CompactBlock(n, idx, own, diag)
	if k != wantK {
		t.Fatalf("coupled = %d, CompactRisk says %d", k, wantK)
	}
	if c, ok := got.(*Compact); ok && c.Coupled() != k {
		t.Fatalf("Coupled() = %d, constructor said %d", c.Coupled(), k)
	}
	sameOperator(t, got, want)
	for h := 1; h <= 7; h++ {
		checkStackedBits(t, "block", dense, got, x[:h*n], h)
	}
	return k
}

func TestBitIdenticalCompactBlock(t *testing.T) {
	logLaneBodies(t)
	rng := rand.New(rand.NewSource(34))
	every := func(n, step int) (idx []int) {
		for i := 0; i < n; i += step {
			idx = append(idx, i)
		}
		return idx
	}
	for _, tc := range []struct {
		name    string
		n       int
		idx     []int
		flat    []int // block positions whose row and column are zeroed off the diagonal
		coupled int
	}{
		{"twins-288", 288, every(288, 2), nil, 144},
		{"k==n lanes", 16, every(16, 1), nil, 16},
		{"k==n small", 5, every(5, 1), nil, 5},
		{"k==n one flat", 12, every(12, 1), []int{3}, 11},
		{"k<8", 9, every(9, 2), nil, 5},
		{"flat rows packed", 40, every(40, 2), []int{0, 7, 19}, 17},
		{"all flat", 24, every(24, 2), every(12, 1), 0},
		{"no block", 6, nil, nil, 0},
		{"one index", 4, []int{2}, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := len(tc.idx)
			block := randomSPD(rng, k)
			if k == 0 {
				block = NewMatrix(0, 0)
			}
			isolate(block, tc.flat...)
			if len(tc.flat) > 0 && k > 1 {
				// A −0 off the diagonal, mirrored, is an exact zero, and a
				// negative isolated diagonal makes −0 products from +0 inputs.
				a := tc.flat[0]
				block.Set(a, (a+1)%k, math.Copysign(0, -1))
				block.Set((a+1)%k, a, math.Copysign(0, -1))
				block.Set(a, a, -block.At(a, a))
			}
			x := signedVector(rng, 7*tc.n)
			if got := checkCompactBlock(t, tc.n, tc.idx, block, 1e-6, x); got != tc.coupled {
				t.Fatalf("coupled = %d, want %d", got, tc.coupled)
			}
			x.Zero()
			checkCompactBlock(t, tc.n, tc.idx, block, -1e-6, x)
		})
	}

	t.Run("keeps-the-block", func(t *testing.T) {
		// Every block index coupled: the block is the packed block, no copy.
		block := randomSPD(rng, 10)
		op, _ := CompactBlock(20, every(20, 2), block, 1e-6)
		if c := op.(*Compact); &c.block.Data[0] != &block.Data[0] {
			t.Fatal("CompactBlock copied a block it could keep")
		}
	})

	t.Run("shape-panics", func(t *testing.T) {
		for name, fn := range map[string]func(){
			"block-vs-idx":     func() { CompactBlock(4, []int{0, 1}, NewMatrix(3, 3), 0) },
			"more-than-n":      func() { CompactBlock(1, []int{0, 1}, NewMatrix(2, 2), 0) },
			"non-square-block": func() { CompactBlock(4, []int{0, 1}, NewMatrix(2, 3), 0) },
			"asymmetric-block": func() { CompactBlock(4, []int{0, 1}, &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0.5, 0.25, 1}}, 0) },
			"asymmetric-k==n":  func() { CompactBlock(2, []int{0, 1}, &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0.5, 0.25, 1}}, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: expected panic", name)
					}
				}()
				fn()
			}()
		}
	})
}

// FuzzCompactBlock builds a symmetric block, as a covariance is, over an
// arbitrary index subset (mask bits 0–11 pick the indices; the rest of n's
// indices are outside it) from the input, zeroes some of its rows and columns
// off the diagonal (a zero-variance series; mask bits 12–15), and holds
// CompactBlock to CompactRisk of the scattered matrix: the same operator,
// coupled set and count, and stacked apply over h = 1..7 with every body.
// With n's top bit set it flips one bit of one off-diagonal entry instead,
// and CompactBlock must panic on the asymmetric block.
func FuzzCompactBlock(f *testing.F) {
	f.Add(uint8(6), uint16(0b101010), []byte("spotweb on-demand twins"))
	f.Add(uint8(12), uint16(0x0fff), []byte("k == n, one lane chunk and a half"))
	f.Add(uint8(18), uint16(0x0aaa), []byte{0x80, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(9), uint16(0xf1ff), []byte{})
	f.Add(uint8(0x80|5), uint16(0), []byte{0xff, 0x00, 0x80, 0x7f, 0x01})
	f.Add(uint8(0x80|12), uint16(0x0fff), []byte("an asymmetric k == n block"))
	f.Fuzz(func(t *testing.T, n uint8, mask uint16, data []byte) {
		nn := int(n&0x7f) % 19
		if nn == 0 {
			return
		}
		pos := 0
		next := func() float64 {
			var buf [8]byte
			if pos < len(data) {
				pos += copy(buf[:], data[pos:])
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = float64(buf[0])/255 - 0.5 // the contract covers finite operands only
			}
			return v
		}
		var idx []int
		for i := 0; i < nn; i++ {
			if i >= 12 || mask&(1<<i) != 0 {
				idx = append(idx, i)
			}
		}
		k := len(idx)
		block := NewMatrix(k, k)
		for i := range block.Data {
			block.Data[i] = next()
		}
		for a := 0; a < k; a++ {
			for b := 0; b < a; b++ {
				block.Set(a, b, block.At(b, a))
			}
		}
		for a := 0; a < k; a++ {
			if mask&(1<<(12+a%4)) != 0 && a%3 == 0 {
				isolate(block, a)
			}
		}
		diag := next()
		if n&0x80 != 0 {
			if k < 2 {
				return
			}
			a := int(mask>>12) % (k - 1)
			block.Set(a, a+1, math.Float64frombits(math.Float64bits(block.At(a, a+1))^1))
			defer func() {
				if recover() == nil {
					t.Fatalf("CompactBlock accepted a block asymmetric at (%d, %d)", a, a+1)
				}
			}()
			CompactBlock(nn, idx, block, diag)
			return
		}
		x := NewVector(7 * nn)
		for i := range x {
			x[i] = next()
		}
		checkCompactBlock(t, nn, idx, block, diag, x)
	})
}
