package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMulVec is the oracle every risk matvec is held to (DESIGN.md §5, "Kernel
// contract"): one row and one accumulator at a time, Σ_j M_ij·x_j in ascending
// j from +0, each product rounded on its own (float64() forbids fusing it).
func refMulVec(m *Matrix, x, dst Vector) Vector {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += float64(a * x[j])
		}
		dst[i] = s
	}
	return dst
}

// checkStackedBits applies op — an operator built from m — to the h stacked
// blocks of x, once in one MulVecStacked call and once as h MulVec calls, with
// every body this CPU has (avx512, avx2, scalar), and fails on any bit of
// either that differs from refMulVec on m.
func checkStackedBits(t *testing.T, name string, m *Matrix, op MatVec, x Vector, h int) {
	t.Helper()
	r, c := m.Rows, m.Cols
	want := NewVector(r * h)
	for p := 0; p < h; p++ {
		refMulVec(m, x[p*c:(p+1)*c], want[p*r:(p+1)*r])
	}
	forEachLaneBody(t, func(body string) {
		stacked, perBlock := NewVector(r*h), NewVector(r*h)
		for i := range stacked {
			stacked[i], perBlock[i] = math.NaN(), math.NaN() // every output must be written
		}
		op.MulVecStacked(x, stacked)
		for p := 0; p < h; p++ {
			op.MulVec(x[p*c:(p+1)*c], perBlock[p*r:(p+1)*r])
		}
		for _, got := range []struct {
			how string
			v   Vector
		}{{"stacked", stacked}, {"MulVec", perBlock}} {
			for i := range want {
				if math.Float64bits(got.v[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s h=%d: block %d output %d: %s %v (%#x) != reference %v (%#x)",
						name, body, h, i/r, i%r, got.how, got.v[i], math.Float64bits(got.v[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

// oddIndices returns 1, 3, 5, … below n.
func oddIndices(n int) (idx []int) {
	for i := 1; i < n; i += 2 {
		idx = append(idx, i)
	}
	return idx
}

func TestBitIdenticalStackedMulVec(t *testing.T) {
	logLaneBodies(t)
	odd := oddIndices
	// k is the coupled count: even and odd blocks, and none at all. One
	// coupled index cannot occur — an off-diagonal entry couples two — so the
	// one-row block is the dense n = 1 matrix. asym breaks the symmetry of
	// the matrix, which CompactRisk then returns itself, all n coupled.
	type stackedCase struct {
		name string
		n, k int
		iso  []int
		asym bool
	}
	cases := []stackedCase{
		{"interleaved", 12, 6, odd(12), false},
		{"leading", 9, 6, []int{0, 1, 2}, false},
		{"trailing", 9, 6, []int{6, 7, 8}, false},
		{"k=3", 5, 3, []int{0, 2}, false},
		{"k=5", 8, 5, []int{1, 3, 5}, false},
		{"all-isolated", 5, 0, []int{0, 1, 2, 3, 4}, false},
		{"n=288-half", 288, 144, odd(288), false},
		{"n=288-odd-k", 288, 145, odd(288)[1:], false},
		{"none n=288", 288, 288, nil, false},
		{"leading-k=17", 20, 17, []int{0, 1, 2}, false},
	}
	// Every chunk shape of the lanes — no full chunk, one, one and a tail, two
	// — with nothing isolated (the operator runs over the matrix itself) and
	// with every other index isolated (the packed block), symmetric — and the
	// same matrices made asymmetric, which run the dense code.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 50, 144} {
		k := (n + 1) / 2 // the even indices stay coupled …
		if k < 2 {
			k = 0 // … unless one is left, with nothing to couple to
		}
		for _, asym := range []bool{false, true} {
			if asym && n < 3 {
				continue
			}
			tag := fmt.Sprintf("n=%d", n)
			if asym {
				tag += "-asym"
			}
			none, oddK := n, k
			if n == 1 {
				none = 0
			}
			if asym {
				oddK = n
			}
			cases = append(cases,
				stackedCase{"none " + tag, n, none, nil, asym},
				stackedCase{"odd " + tag, n, oddK, odd(n), asym})
		}
	}
	rng := rand.New(rand.NewSource(18))
	for _, tc := range cases {
		m := randomSPD(rng, tc.n)
		isolate(m, tc.iso...)
		// −0 and negative entries: a −0 product must still read +0. The −0
		// goes on both sides, so it leaves the matrix symmetric; below n = 4
		// it would cut the only link of index 0 or n−1.
		if tc.n >= 4 {
			m.Set(0, tc.n-1, math.Copysign(0, -1))
			m.Set(tc.n-1, 0, math.Copysign(0, -1))
		}
		if len(tc.iso) > 0 {
			i := tc.iso[0]
			m.Set(i, i, -m.At(i, i))
		}
		if tc.asym { // indices 0 and 2 are coupled in every asym case
			m.Set(0, 2, m.At(0, 2)+0.5)
		}
		compact, k := CompactRisk(m)
		wantMatrix := tc.asym || k == tc.n && tc.n > 1 && tc.n < 8
		if _, isMatrix := compact.(*Matrix); isMatrix != wantMatrix || k != tc.k {
			t.Fatalf("%s: CompactRisk returned %T with %d coupled, want %d (matrix itself: %v)", tc.name, compact, k, tc.k, wantMatrix)
		}
		for h := 1; h <= 7; h++ {
			x := signedVector(rng, tc.n*h)
			checkStackedBits(t, tc.name+"/matrix", m, m, x, h)
			checkStackedBits(t, tc.name+"/compact", m, compact, x, h)
		}
	}
	// Non-square, odd and even row counts: blocks of Cols in, blocks of Rows out.
	for _, shape := range [][2]int{{5, 3}, {2, 7}, {3, 1}, {1, 4}} {
		r := randomMatrix(rng, shape[0], shape[1])
		for h := 1; h <= 7; h++ {
			checkStackedBits(t, "non-square", r, r, signedVector(rng, shape[1]*h), h)
		}
	}
}

func TestStackedMulVecShapePanics(t *testing.T) {
	m := identity(4)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	compact, _ := CompactRisk(m)
	for name, fn := range map[string]func(){
		"matrix-ragged-x":  func() { m.MulVecStacked(NewVector(9), NewVector(8)) },
		"matrix-short-dst": func() { m.MulVecStacked(NewVector(8), NewVector(4)) },
		"matrix-empty":     func() { m.MulVecStacked(nil, nil) },
		"compact-ragged-x": func() { compact.(*Compact).MulVecStacked(NewVector(6), NewVector(8)) },
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

// TestStackedMulVecAllocFree: the stacked apply runs every solver iteration.
func TestStackedMulVecAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := randomSPD(rng, 40)
	x, dst := signedVector(rng, 240), NewVector(240)
	if a := testing.AllocsPerRun(50, func() { m.MulVecStacked(x, dst) }); a != 0 {
		t.Fatalf("Matrix.MulVecStacked allocates %v objects per call", a)
	}
	isolate(m, 1, 5, 9, 30)
	op, _ := CompactRisk(m)
	if a := testing.AllocsPerRun(50, func() { op.MulVecStacked(x, dst) }); a != 0 {
		t.Fatalf("Compact.MulVecStacked allocates %v objects per call", a)
	}
}
