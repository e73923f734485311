package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// onlyMulVec hides every method but MulVec, as *CSR and *FactorModel look to
// MulVecStacked.
type onlyMulVec struct{ m MatVec }

func (o onlyMulVec) MulVec(x, dst Vector) Vector { return o.m.MulVec(x, dst) }

// checkStackedBits applies op to h stacked blocks in one call and fails on
// any bit that differs from h separate MulVec calls.
func checkStackedBits(t *testing.T, name string, op MatVec, n, h int, rng *rand.Rand) {
	t.Helper()
	x := signedVector(rng, n*h)
	want := NewVector(n * h)
	for p := 0; p < h; p++ {
		op.MulVec(x[p*n:(p+1)*n], want[p*n:(p+1)*n])
	}
	got := NewVector(n * h)
	for i := range got {
		got[i] = math.NaN() // every output must be written
	}
	MulVecStacked(op, n, x, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s h=%d: block %d output %d: stacked %v (%#x) != MulVec %v (%#x)",
				name, h, i/n, i%n, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestBitIdenticalStackedMulVec(t *testing.T) {
	odd := func(n int) (idx []int) {
		for i := 1; i < n; i += 2 {
			idx = append(idx, i)
		}
		return idx
	}
	cases := []struct {
		name string
		n    int
		iso  []int
	}{
		{"interleaved", 12, odd(12)},
		{"leading", 9, []int{0, 1, 2}},
		{"trailing", 9, []int{6, 7, 8}},
		{"none", 10, nil},
		{"all-isolated", 5, []int{0, 1, 2, 3, 4}},
		{"n=1", 1, nil},
		{"n=288-half", 288, odd(288)},
	}
	rng := rand.New(rand.NewSource(18))
	for _, tc := range cases {
		m := randomSPD(rng, tc.n)
		isolate(m, tc.iso...)
		// −0 and negative entries: a −0 product must still read +0.
		m.Set(0, tc.n-1, math.Copysign(0, -1))
		if len(tc.iso) > 0 {
			i := tc.iso[0]
			m.Set(i, i, -m.At(i, i))
		}
		compact, _ := CompactRisk(m)
		if _, isMatrix := compact.(*Matrix); isMatrix != (len(tc.iso) == 0 && tc.n > 1) {
			t.Fatalf("%s: CompactRisk returned %T", tc.name, compact)
		}
		for h := 1; h <= 7; h++ {
			checkStackedBits(t, tc.name+"/matrix", m, tc.n, h, rng)
			checkStackedBits(t, tc.name+"/compact", compact, tc.n, h, rng)
			checkStackedBits(t, tc.name+"/fallback", onlyMulVec{compact}, tc.n, h, rng)
		}
	}
	// Non-square: blocks of Cols in, blocks of Rows out.
	r := randomMatrix(rng, 5, 3)
	for h := 1; h <= 7; h++ {
		x := signedVector(rng, 3*h)
		got := r.MulVecStacked(x, NewVector(5*h))
		for p := 0; p < h; p++ {
			want := r.MulVec(x[3*p:3*p+3], NewVector(5))
			for i := range want {
				if math.Float64bits(got[5*p+i]) != math.Float64bits(want[i]) {
					t.Fatalf("5x3 h=%d block %d output %d: %v != %v", h, p, i, got[5*p+i], want[i])
				}
			}
		}
	}
}

func TestStackedMulVecShapePanics(t *testing.T) {
	m := Identity(4)
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
	if a := testing.AllocsPerRun(50, func() { MulVecStacked(m, 40, x, dst) }); a != 0 {
		t.Fatalf("Matrix.MulVecStacked allocates %v objects per call", a)
	}
	isolate(m, 1, 5, 9, 30)
	op, _ := CompactRisk(m)
	if a := testing.AllocsPerRun(50, func() { MulVecStacked(op, 40, x, dst) }); a != 0 {
		t.Fatalf("Compact.MulVecStacked allocates %v objects per call", a)
	}
}
