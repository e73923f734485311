package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestP2QuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0.5, 0.9, 0.99} {
		e := NewP2Quantile(p)
		var all []float64
		for i := 0; i < 50000; i++ {
			x := rng.Float64()
			e.Observe(x)
			all = append(all, x)
		}
		exact := Quantile(all, p)
		if math.Abs(e.Value()-exact) > 0.02 {
			t.Fatalf("p=%v: P2 %v vs exact %v", p, e.Value(), exact)
		}
		if e.count != 50000 {
			t.Fatalf("count = %d", e.count)
		}
	}
}

func TestP2QuantileExponentialTail(t *testing.T) {
	// Heavy-ish tail: p99 of Exp(1) is −ln(0.01) ≈ 4.605.
	rng := rand.New(rand.NewSource(2))
	e := NewP2Quantile(0.99)
	for i := 0; i < 200000; i++ {
		e.Observe(rng.ExpFloat64())
	}
	want := -math.Log(0.01)
	if math.Abs(e.Value()-want) > 0.15*want {
		t.Fatalf("P2 p99 %v vs theory %v", e.Value(), want)
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	e := NewP2Quantile(0.5)
	if e.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	e.Observe(3)
	e.Observe(1)
	e.Observe(2)
	if got := e.Value(); got != 2 {
		t.Fatalf("small-sample median %v, want 2", got)
	}
}

func TestP2QuantileMonotoneStream(t *testing.T) {
	// Sorted input: the estimate must land near the true quantile.
	e := NewP2Quantile(0.9)
	for i := 0; i < 10000; i++ {
		e.Observe(float64(i))
	}
	if math.Abs(e.Value()-9000) > 500 {
		t.Fatalf("P2 on sorted stream %v, want ≈9000", e.Value())
	}
}

func TestP2QuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("p=%v should panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}
