package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm2(); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Fatalf("NormInf = %v, want 4", got)
	}
}

func TestVectorAddScaledScale(t *testing.T) {
	v := Vector{21, 42}
	v.Scale(0.5)
	if v[0] != 10.5 || v[1] != 21 {
		t.Fatalf("Scale got %v", v)
	}
}

func TestVectorSubAddClone(t *testing.T) {
	v := Vector{5, 7}
	w := Vector{1, 2}
	if d := v.Sub(w); d[0] != 4 || d[1] != 5 {
		t.Fatalf("Sub got %v", d)
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 5 {
		t.Fatal("Clone aliases original")
	}
}

func TestVectorMinMaxSumFill(t *testing.T) {
	v := Vector{2, -1, 7}
	if v.Sum() != 8 {
		t.Fatalf("Sum got %v", v.Sum())
	}
	v.Fill(3)
	if v.Sum() != 9 {
		t.Fatalf("Fill got %v", v)
	}
	v.Zero()
	if v.Sum() != 0 {
		t.Fatalf("Zero got %v", v)
	}
}

func TestClamp(t *testing.T) {
	v := Vector{-5, 0.5, 5}
	lo := Vector{0, 0, 0}
	hi := Vector{1, 1, 1}
	Clamp(v, lo, hi)
	if v[0] != 0 || v[1] != 0.5 || v[2] != 1 {
		t.Fatalf("Clamp got %v", v)
	}
}

// Property: Cauchy–Schwarz, |⟨v,w⟩| ≤ ‖v‖‖w‖.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, w := Vector(a[:n]), Vector(b[:n])
		for i := 0; i < n; i++ {
			// Bound values to avoid overflow-dominated comparisons.
			v[i] = math.Mod(v[i], 1e6)
			w[i] = math.Mod(w[i], 1e6)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		lhs := math.Abs(v.Dot(w))
		rhs := v.Norm2() * w.Norm2()
		return lhs <= rhs*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Norm2.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(20)
		v, w := NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			v[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}
		sum := v.Clone()
		for i := range sum {
			sum[i] += w[i]
		}
		if sum.Norm2() > v.Norm2()+w.Norm2()+1e-12 {
			t.Fatalf("triangle inequality violated: v=%v w=%v", v, w)
		}
	}
}
