package solver_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/solver"
)

// splitCatalog has 24 transient markets — three 8-wide lane chunks of the
// covariance's coupled block — each with an on-demand twin.
func splitCatalog() *market.Catalog {
	return market.CatalogConfig{Seed: 21, NumTypes: 24, IncludeOnDemand: true, Hours: 24 * 20}.Generate()
}

// planWarm returns the solver state a plan hands to the next round.
func planWarm(p *portfolio.Plan) *solver.WarmState {
	return (*solver.WarmState)(reflect.ValueOf(p).Elem().FieldByName("warm").UnsafePointer())
}

// planDigest writes every bit a plan carries into d: status, iterations,
// warm start, objective, residual, allocations, coupled count, projection
// pass counts and the warm state that seeds the next round.
func planDigest(d []uint64, p *portfolio.Plan) []uint64 {
	d = append(d, uint64(p.Status), uint64(p.Iterations), uint64(p.RiskCoupled),
		math.Float64bits(p.Objective), math.Float64bits(p.PriRes),
		uint64(p.Projection.Projections), uint64(p.Projection.Passes), uint64(p.Projection.Jumps))
	if p.WarmStarted {
		d = append(d, 1)
	}
	for _, a := range p.Alloc {
		for _, v := range a {
			d = append(d, math.Float64bits(v))
		}
	}
	if w := planWarm(p); w != nil {
		d = append(d, solver.WarmBits(w)...)
	}
	return d
}

// digest returns the leading hex of the SHA-256 of bits.
func digest(bits []uint64) string {
	sum := sha256.New()
	_ = binary.Write(sum, binary.LittleEndian, bits)
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// splitTrace solves splitCatalog's program at horizon h, with the on-demand
// anchor floor or without, once cold and then over a 12-round warm
// receding-horizon trace, and returns the digest of every plan and that of
// every iteration's restart dot.
func splitTrace(t testing.TB, h int, anchor bool) (plans, dots string) {
	cat := splitCatalog()
	n := cat.Len()
	b := portfolio.InputBuilder{
		Workload: predict.NewSplinePredictor(predict.SplineConfig{StepHrs: cat.StepHrs, ARLag1: true, CIProb: 0.99}, h),
		Source:   portfolio.ReactiveSource{Cat: cat},
	}
	cfg := portfolio.Config{Horizon: h, ChurnKappa: 1}
	if anchor {
		cfg.AMinOnDemand = 0.3
	}
	onDemand := make([]bool, n)
	for i, m := range cat.Markets {
		onDemand[i] = !m.Transient
	}
	const t0 = 24 * 15
	var (
		ws         portfolio.WarmSolver
		prev       linalg.Vector
		bits, dotB []uint64
	)
	defer solver.TraceDots(func(dot float64) { dotB = append(dotB, math.Float64bits(dot)) })()
	for r := 0; r <= 12; r++ {
		tick := t0 + r
		in, epoch := b.Build(tick, h, 400+150*math.Sin(float64(tick)*2*math.Pi/24))
		in.Risk, _ = cat.CovarianceOperator(tick, cat.TwoWeekWindow(), nil)
		in.OnDemand, in.PrevAlloc = onDemand, prev
		var (
			plan *portfolio.Plan
			err  error
		)
		if r == 0 {
			plan, err = portfolio.Optimize(cfg, in)
		} else {
			plan, err = ws.Solve(cfg, cat, in, epoch)
		}
		if err != nil {
			t.Fatalf("h=%d anchor=%v round %d: %v", h, anchor, r, err)
		}
		bits = planDigest(bits, plan)
		if r > 0 {
			ws.Shift(n)
		}
		prev = plan.First()
	}
	return digest(bits), digest(dotB)
}

// splitDigests are splitTrace's plan digests as the one-part solve computes
// them, recorded before solves could split.
var splitDigests = map[string]string{
	"h=1":        "ca1da247d644cdcd",
	"h=1/anchor": "fcd5d1daa400b0f0",
	"h=2":        "7264c46eac656f21",
	"h=2/anchor": "37be03d51fcadc61",
	"h=5":        "979c50146a2d6771",
	"h=5/anchor": "f4e19e007c57feae",
	"h=6":        "ab7bfbb44bb10eba",
	"h=6/anchor": "8cb02d769b8766b6",
}

// TestBitIdenticalSplitSolve holds the split law: a solve whose per-period
// work runs in two parts computes the bits the one-part solve computes —
// plans, objectives, residuals, iteration and projection pass counts, the
// warm state the next round starts from, and every restart dot, whose bits
// no plan shows (only its sign steers the solve) — whoever runs part 1. It
// replays splitTrace under the program's gate, under which these solves stay
// in one part, and then with the gate lowered so they split: with the helper
// racing the caller, with part 1 left to the helper every time, and with no
// helper (both parts inline, in order), at GOMAXPROCS 2. Every run must
// reproduce the recorded plan digest and the one-part run's dot digest.
// Horizons 1 and 2 have no cut, so they hold that the gate leaves them
// whole; 5 and 6 cut at period 4.
func TestBitIdenticalSplitSolve(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for h, cut := range map[int]int{1: 0, 2: 0, 5: 4, 6: 4} {
		if got := linalg.StackedSplit(h); got != cut {
			t.Fatalf("StackedSplit(%d) = %d, want %d: one four-block pass | the rest", h, got, cut)
		}
	}
	for _, h := range []int{1, 2, 5, 6} {
		for _, anchor := range []bool{false, true} {
			key := "h=" + strconv.Itoa(h)
			if anchor {
				key += "/anchor"
			}
			plans, dots := splitTrace(t, h, anchor)
			if want := splitDigests[key]; plans != want {
				t.Errorf("one-part %s: plan digest %s, want %s", key, plans, want)
			}
			for _, mode := range []struct {
				name   string
				helper int
			}{
				{"helper", solver.HelperRaces},
				{"helper-takes-all", solver.HelperTakesAll},
				{"no-helper", solver.HelperNone},
			} {
				split := 0
				stop := solver.TraceSplits(func() { split++ })
				restore := solver.SetSplit(1, mode.helper)
				gotPlans, gotDots := splitTrace(t, h, anchor)
				restore()
				stop()
				if gotPlans != plans || gotDots != dots {
					t.Errorf("%s %s: plan/dot digests %s/%s, want %s/%s", mode.name, key, gotPlans, gotDots, plans, dots)
				}
				if wantSplit := linalg.StackedSplit(h) > 0; (split > 0) != wantSplit {
					t.Errorf("%s %s: %d solves split, want split %v", mode.name, key, split, wantSplit)
				}
			}
		}
	}
}

// TestSplitHelperExits: the helper a split solve starts has exited when the
// solve returns — the goroutine count is back at its baseline within a
// bounded wait, after each of a run of split solves.
func TestSplitHelperExits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer solver.SetSplit(1, solver.HelperRaces)()
	split := 0
	defer solver.TraceSplits(func() { split++ })()
	base := runtime.NumGoroutine()
	splitTrace(t, 6, false)
	if split == 0 {
		t.Fatal("no solve split")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the split solves, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSplitSolve replays a 24-round warm receding-horizon trace of a
// catalog of types on-demand/transient pairs at horizon h, once with every
// solve in one part and once split, and reports the mean solve time and
// solver iterations per round: the pair of legs at each size is how the
// gate's crossover is measured (DESIGN.md §5).
func BenchmarkSplitSolve(b *testing.B) {
	for _, c := range []struct{ types, h int }{{48, 6}, {72, 6}, {96, 6}, {120, 6}, {144, 6}} {
		cat := market.CatalogConfig{Seed: 9, NumTypes: c.types, IncludeOnDemand: true, Hours: 24 * 21}.Generate()
		n := cat.Len()
		bld := portfolio.InputBuilder{
			Workload: predict.NewSplinePredictor(predict.SplineConfig{StepHrs: cat.StepHrs, ARLag1: true, CIProb: 0.99}, c.h),
			Source:   portfolio.ReactiveSource{Cat: cat},
		}
		const rounds, t0 = 24, 24 * 15
		ins := make([]*portfolio.Inputs, rounds)
		epochs := make([]uint64, rounds)
		for r := range ins {
			ins[r], epochs[r] = bld.Build(t0+r, c.h, 400+150*math.Sin(float64(t0+r)*2*math.Pi/24))
			ins[r].Risk, _ = cat.CovarianceOperator(t0+r, cat.TwoWeekWindow(), nil)
		}
		cfg := portfolio.Config{Horizon: c.h, ChurnKappa: 1}
		for _, leg := range []struct {
			name   string
			minDim int
		}{{"one-part", math.MaxInt}, {"split", 1}} {
			b.Run("n="+strconv.Itoa(n)+"/h="+strconv.Itoa(c.h)+"/"+leg.name, func(b *testing.B) {
				defer solver.SetSplit(leg.minDim, solver.HelperRaces)()
				var solve time.Duration
				iters := 0
				for i := 0; i < b.N; i++ {
					var ws portfolio.WarmSolver
					for r, in := range ins {
						plan, err := ws.Solve(cfg, cat, in, epochs[r])
						if err != nil {
							b.Fatal(err)
						}
						solve += plan.SolveTime
						iters += plan.Iterations
						ws.Shift(n)
					}
				}
				b.ReportMetric(float64(solve.Microseconds())/float64(rounds*b.N), "us/solve")
				b.ReportMetric(float64(iters)/float64(rounds*b.N), "iters/solve")
			})
		}
	}
}
