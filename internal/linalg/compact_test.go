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

// checkCompactBits applies m densely and through CompactRisk and fails on any
// differing bit; it returns the operator and its coupled count.
func checkCompactBits(t *testing.T, m *Matrix, x Vector) (MatVec, int) {
	t.Helper()
	n := m.Rows
	want := m.MulVec(x, NewVector(n))
	op, k := CompactRisk(m)
	got := NewVector(n)
	for i := range got {
		got[i] = math.NaN() // every output must be written
	}
	op.MulVec(x, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("output %d: compact %v (%#x) != dense %v (%#x), coupled=%d/%d",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), k, n)
		}
	}
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
			// A −0 off the diagonal is still an exact zero; a negative
			// diagonal on an isolated index makes −0 products with +0 inputs.
			if len(tc.iso) > 0 && tc.n > 1 {
				i := tc.iso[0]
				m.Set(i, (i+1)%tc.n, math.Copysign(0, -1))
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
		m := randomSPD(rng, 10)
		op, k := CompactRisk(m)
		if got, ok := op.(*Matrix); !ok || got != m || k != 10 {
			t.Fatalf("CompactRisk of a dense matrix = %T (coupled %d), want the matrix itself", op, k)
		}
	})

	t.Run("zero-row-nonzero-column-is-coupled", func(t *testing.T) {
		// Index 2's row is zero off the diagonal but x_2 feeds rows 0 and 4;
		// index 3's column is zero but output 3 reads x_1. Both are coupled.
		m := randomSPD(rng, 6)
		isolate(m, 2, 3, 5)
		m.Set(0, 2, 0.25)
		m.Set(4, 2, -1.5)
		m.Set(3, 1, 0.75)
		_, k := checkCompactBits(t, m, signedVector(rng, 6))
		if k != 5 { // everything but 5
			t.Fatalf("coupled = %d, want 5", k)
		}
	})
}

func TestCompactRiskShapePanics(t *testing.T) {
	m := Identity(4)
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
// input and checks the compact operator against the dense matvec bit for bit.
func FuzzCompactRisk(f *testing.F) {
	f.Add(uint8(6), uint16(0b101010), []byte("spotweb on-demand twins"))
	f.Add(uint8(1), uint16(1), []byte{})
	f.Add(uint8(9), uint16(0), []byte{0xff, 0x00, 0x80, 0x7f, 0x01})
	f.Add(uint8(12), uint16(0xffff), []byte{0x80, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, n uint8, mask uint16, data []byte) {
		nn := int(n % 13)
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
		for i := 0; i < nn; i++ {
			if mask&(1<<i) != 0 {
				isolate(m, i)
			}
		}
		x := NewVector(nn)
		for i := range x {
			x[i] = next()
		}
		checkCompactBits(t, m, x)
	})
}

// TestBitIdenticalFactorModelMulVec pins FactorModel.MulVec, which writes out
// the Fᵀx and F·(Fᵀx) loops to stay allocation-free, to the Matrix methods it
// used to call.
func TestBitIdenticalFactorModelMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{0, 1, 3, factorStackMax, factorStackMax + 5} {
		n := 23
		fm := &FactorModel{D: NewVector(n), F: randomMatrix(rng, n, k)}
		for i := range fm.D {
			fm.D[i] = rng.Float64()
		}
		x := signedVector(rng, n)
		tmp := fm.F.MulVecT(x, NewVector(k))
		want := fm.F.MulVec(tmp, NewVector(n))
		for i := range want {
			want[i] += fm.D[i] * x[i]
		}
		got := fm.MulVec(x, NewVector(n))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d output %d: %v != %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestFactorModelMulVecAllocs is the regression test for the per-call
// NewVector(k): up to factorStackMax factors the matvec must not allocate.
func TestFactorModelMulVecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	for _, tc := range []struct{ k, allocs int }{{3, 0}, {factorStackMax, 0}, {factorStackMax + 1, 1}} {
		fm := &FactorModel{D: NewVector(n), F: randomMatrix(rng, n, tc.k)}
		x, dst := signedVector(rng, n), NewVector(n)
		if a := testing.AllocsPerRun(50, func() { fm.MulVec(x, dst) }); int(a) != tc.allocs {
			t.Fatalf("k=%d: FactorModel.MulVec allocates %v objects per call, want %d", tc.k, a, tc.allocs)
		}
	}
}
