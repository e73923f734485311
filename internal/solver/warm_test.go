package solver

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func maxAbsDiff(t *testing.T, a, b linalg.Vector) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	var mx float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}

// FISTA warm re-solve: cached Lipschitz estimate and iterates carry over, the
// solve reports WarmStarted and lands on the same point in no more iterations.
func TestFISTAWarmSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, proj := portfolioLikeQP(rng, 15)
	cold := SolveFISTA(proj, FISTASettings{})
	if cold.Status != StatusSolved {
		t.Fatalf("cold solve: status %v", cold.Status)
	}
	if cold.Warm.lip <= 0 || len(cold.Warm.lipVec) != 15 {
		t.Fatalf("cold result should cache the Lipschitz estimate, got %v / %d-vec",
			cold.Warm.lip, len(cold.Warm.lipVec))
	}
	warm := SolveFISTA(proj, FISTASettings{Warm: cold.Warm})
	if warm.Status != StatusSolved {
		t.Fatalf("warm solve: status %v", warm.Status)
	}
	if !warm.WarmStarted {
		t.Fatal("warm solve should report WarmStarted")
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	if d := maxAbsDiff(t, cold.X, warm.X); d > 1e-5 {
		t.Fatalf("warm and cold solutions differ by %v", d)
	}
	if warm.Warm.lip <= 0 || len(warm.Warm.lipVec) != 15 {
		t.Fatal("warm result should re-cache the Lipschitz estimate")
	}
}

// ShiftHorizon on the MPO layout: period blocks move one step earlier with
// the terminal block duplicated.
func TestShiftHorizonMPOLayout(t *testing.T) {
	w := &WarmState{
		x:     linalg.Vector{1, 2, 3, 4, 5, 6},
		xPrev: linalg.Vector{10, 20, 30, 40, 50, 60},
	}
	w.ShiftHorizon(2)
	want := map[string][2]linalg.Vector{
		"x":     {w.x, {3, 4, 5, 6, 5, 6}},
		"xPrev": {w.xPrev, {30, 40, 50, 60, 50, 60}},
	}
	for name, pair := range want {
		got, exp := pair[0], pair[1]
		if len(got) != len(exp) {
			t.Fatalf("%s: length %d, want %d", name, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("%s[%d] = %v, want %v (full: %v)", name, i, got[i], exp[i], got)
			}
		}
	}
}

// ShiftHorizon must drop iterates it cannot shift meaningfully rather than
// feed garbage seeds to the next solve, and must be nil-safe.
func TestShiftHorizonUnknownLayouts(t *testing.T) {
	// x not divisible into period blocks: all iterates dropped.
	w := &WarmState{x: linalg.Vector{1, 2, 3}, xPrev: linalg.Vector{1, 2, 3}}
	w.ShiftHorizon(2)
	if w.x != nil || w.xPrev != nil {
		t.Fatal("indivisible x layout should drop the iterates")
	}

	var nilW *WarmState
	nilW.ShiftHorizon(3)
}

// Warm state from a different-dimension problem must be ignored gracefully:
// no panic, no seeding, and the solve still reaches the correct solution.
func TestWarmWrongDimensionIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, bigProj := portfolioLikeQP(rng, 12)
	_, smallProj := portfolioLikeQP(rng, 5)

	stale := SolveFISTA(bigProj, FISTASettings{})
	warm := SolveFISTA(smallProj, FISTASettings{Warm: stale.Warm})
	ref := SolveFISTA(smallProj, FISTASettings{})
	if warm.Status != StatusSolved {
		t.Fatalf("FISTA with mismatched warm state: status %v", warm.Status)
	}
	if warm.WarmStarted {
		t.Fatal("mismatched warm state must not mark the FISTA solve warm")
	}
	if d := maxAbsDiff(t, ref.X, warm.X); d > 1e-6 {
		t.Fatalf("mismatched warm state changed the FISTA solution by %v", d)
	}
}
