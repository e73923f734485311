package sweep

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/chaos/runner"
	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/risk"
	"repro/internal/runcfg"
)

// testGrid is the 256-cell determinism grid: 4 scenarios × 16 seeds
// × 4 variants, shrunk to 12 intervals at 12 sub-steps so the whole sweep
// runs in about a second.
func testGrid() Grid {
	return Grid{
		Name:      "determinism-256",
		Scenarios: []string{"storm", "flap", "late-warning", "price-spike"},
		Seeds:     16,
		Variants: []Variant{
			{Name: "default"},
			{Name: "sentinel", Config: runcfg.RunConfig{Sentinel: true}},
			{Name: "anchor", Config: runcfg.RunConfig{AnchorMin: 0.3}},
			{Name: "risk", Config: runcfg.RunConfig{Risk: true}},
		},
		Hours:       12,
		SubSteps:    12,
		KeepReports: true,
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	// Pinned values: the derivation is part of the artifact contract — a
	// silent change would orphan every published sweep.
	if got := SeedFor(0, 0); got != SeedFor(0, 0) || got <= 0 {
		t.Fatalf("SeedFor not stable/positive: %d", got)
	}
	seen := map[int64]bool{}
	for base := int64(0); base < 3; base++ {
		for idx := 0; idx < 64; idx++ {
			s := SeedFor(base, idx)
			if s <= 0 {
				t.Fatalf("SeedFor(%d,%d) = %d, want positive", base, idx, s)
			}
			if seen[s] {
				t.Fatalf("SeedFor(%d,%d) collides", base, idx)
			}
			seen[s] = true
		}
	}
}

func TestGridValidate(t *testing.T) {
	g := testGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := g
	bad.Scenarios = []string{"storm", "storm"}
	if bad.Validate() == nil {
		t.Error("duplicate scenarios accepted")
	}
	bad = g
	bad.Variants = append(bad.Variants, Variant{Name: "default"})
	if bad.Validate() == nil {
		t.Error("duplicate variants accepted")
	}
	bad = g
	bad.Seeds = 0
	if bad.Validate() == nil {
		t.Error("zero seeds accepted")
	}
	// A variant's run options are checked as the command-line flags are.
	bad = g
	bad.Variants = append(append([]Variant(nil), g.Variants...), Variant{Name: "nan", Config: runcfg.RunConfig{HighUtil: math.NaN()}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), `variant "nan": -high-util NaN`) {
		t.Errorf("variant with HighUtil NaN: Validate = %v", err)
	}
	// A seed axis past the bound made Run panic in make(); with four
	// scenarios the cell count overflowed to exactly 0.
	for _, scen := range [][]string{{"storm"}, {"storm", "flap", "price-spike", "combined"}} {
		bad = g
		bad.Scenarios, bad.Seeds = scen, 1<<62
		if bad.Validate() == nil {
			t.Errorf("%d scenarios × 2^62 seeds (CellCount %d) accepted", len(scen), bad.CellCount())
		}
	}
	bad = g
	bad.Seeds = maxCells/(len(g.Scenarios)*len(g.Variants)) + 1
	if bad.Validate() == nil {
		t.Errorf("%d cells accepted, bound %d", bad.CellCount(), maxCells)
	}
	bad.Seeds--
	if err := bad.Validate(); err != nil {
		t.Errorf("%d cells rejected, bound %d: %v", bad.CellCount(), maxCells, err)
	}
}

// TestSweepMatchesStandaloneCell is the core determinism property: any cell
// of a 256-cell concurrent sweep, re-run standalone via RunCell, produces a
// byte-identical encoded report — the sweep engine's caching (shared
// catalogs, reused baselines, per-worker scratch) is invisible in results.
// It also pins worker-count invariance: the whole artifact encodes to the
// same bytes serially and at 8 workers.
func TestSweepMatchesStandaloneCell(t *testing.T) {
	grid := testGrid()
	art8, _, err := Run(grid, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(art8.Cells) != 256 {
		t.Fatalf("got %d cells, want 256", len(art8.Cells))
	}

	art1, _, err := Run(grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b8, err := art8.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := art1.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("artifact differs between 1 and 8 workers")
	}

	// Spot-check a spread of cells against standalone reproduction.
	for _, i := range []int{0, 37, 101, 255} {
		cell := art8.Cells[i]
		rep, err := RunCell(grid, cell.CellRef)
		if err != nil {
			t.Fatalf("RunCell(%v): %v", cell.CellRef, err)
		}
		b, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, cell.Report) {
			t.Fatalf("cell %v: standalone report differs from sweep report", cell.CellRef)
		}
		if cell.Seed != SeedFor(grid.BaseSeed, cell.SeedIdx) {
			t.Fatalf("cell %v carries seed %d, want %d", cell.CellRef, cell.Seed, SeedFor(grid.BaseSeed, cell.SeedIdx))
		}
	}
}

// TestSweepEveryScenarioKind: catalog-lie and region-outage scenarios are
// cells like any other — precompiled envs, per-worker scratch, Hours/SubSteps
// overrides. A grid mixing them with a standard scenario (whose baseline is
// cached across the group while theirs is not) encodes to the same bytes at
// 1 and 4 workers and across a kill/resume, and every cell equals its
// standalone RunCell reproduction at the same derived seed.
func TestSweepEveryScenarioKind(t *testing.T) {
	grid := Grid{
		Name:      "kinds-12",
		Scenarios: []string{"storm", "stale-catalog", "region-outage"},
		Seeds:     2,
		Variants: []Variant{
			{Name: "default"},
			{Name: "sentinel", Config: runcfg.RunConfig{Sentinel: true}},
		},
		Hours:       12,
		SubSteps:    20,
		KeepReports: true,
	}
	encode := func(opts Options) []byte {
		t.Helper()
		art, _, err := Run(grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := art.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	art, _, err := Run(grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(Options{Workers: 1}), want) {
		t.Fatal("artifact differs between 1 and 4 workers")
	}

	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := Run(grid, Options{Workers: 2, CheckpointPath: ck, StopAfter: 5}); !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run: err=%v, want ErrStopped", err)
	}
	if !bytes.Equal(encode(Options{Workers: 2, CheckpointPath: ck, Resume: true}), want) {
		t.Fatal("resumed artifact differs from uninterrupted artifact")
	}

	if len(art.Cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(art.Cells))
	}
	for _, cell := range art.Cells {
		if cell.Seed != SeedFor(grid.BaseSeed, cell.SeedIdx) {
			t.Fatalf("cell %v carries seed %d, want %d", cell.CellRef, cell.Seed, SeedFor(grid.BaseSeed, cell.SeedIdx))
		}
		rep, err := RunCell(grid, cell.CellRef)
		if err != nil {
			t.Fatalf("RunCell(%v): %v", cell.CellRef, err)
		}
		if rep.Intervals != 12 || rep.Seed != cell.Seed {
			t.Fatalf("cell %v: report ran %d intervals at seed %d", cell.CellRef, rep.Intervals, rep.Seed)
		}
		b, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, cell.Report) {
			t.Fatalf("cell %v: standalone report differs from sweep report", cell.CellRef)
		}
	}
}

// TestPlanSharingAcrossSweep pins what plan sharing buys a seed of the
// benchmark grid: 30 planner legs (5 variants × (5 fault legs + 1 shared
// baseline)) but 12 planner builds — one trace per (catalog view: standard,
// price-spike, combined) × (anchor off, 0.3), each replayed by default and
// sentinel or by anchor and sentinel-anchor, plus the 6 live legs of the risk
// variant, whose estimator each leg feeds. Those 6 estimators share one
// quantile memo, which serves a repeat for almost half their quantiles (the
// legs agree until their first fault). At 4 workers the default and sentinel
// groups race for the same traces; the artifact must not notice. The stats
// artifact reports the memo's calls and hits.
func TestPlanSharingAcrossSweep(t *testing.T) {
	grid := ChaosSuiteGrid(1, true)
	grid.KeepReports = true
	var want []byte
	for _, workers := range []int{1, 4} {
		var builds atomic.Int64
		var plans *runner.PlanCache
		art, st, err := Run(grid, Options{Workers: workers, envHook: func(env *runner.Env) {
			plans = env.Plans
			build := env.NewPlanner
			env.NewPlanner = func(cfg portfolio.Config, declared *market.Catalog, est *risk.Estimator) autoscale.Stepper {
				builds.Add(1)
				return build(cfg, declared, est)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if n := builds.Load(); n != 12 {
			t.Fatalf("%d workers: %d planner builds, want 12", workers, n)
		}
		calls, hits := plans.Quantiles.Stats()
		t.Logf("%d workers: the memo served %d of %d quantiles", workers, hits, calls)
		if calls == 0 || float64(hits) < 0.4*float64(calls) {
			t.Fatalf("%d workers: the memo served %d of %d quantiles, want ≥ 40 %%", workers, hits, calls)
		}
		if st.QuantileCalls != calls || st.QuantileHits != hits { // one seed: one cache
			t.Fatalf("%d workers: Stats reports %d of %d quantiles, the memo %d of %d",
				workers, st.QuantileHits, st.QuantileCalls, hits, calls)
		}
		b, err := art.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("artifact differs between 1 and %d workers", workers)
		}
	}
}

// smallGrid is the 16-cell grid the resume tests interrupt.
func smallGrid() Grid {
	g := testGrid()
	g.Name = "resume-16"
	g.Scenarios = []string{"storm", "flap"}
	g.Seeds = 4
	g.Variants = g.Variants[:2]
	return g
}

// TestSweepKillResumeReproducesArtifact interrupts a checkpointed sweep
// after 5 cells and resumes it; the resumed artifact must be byte-identical
// to an uninterrupted run's.
func TestSweepKillResumeReproducesArtifact(t *testing.T) {
	grid := smallGrid()
	want, _, err := Run(grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := want.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	art, stats, err := Run(grid, Options{Workers: 2, CheckpointPath: ck, StopAfter: 5})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run: artifact=%v err=%v, want ErrStopped", art, err)
	}
	if stats.Executed < 5 || stats.Executed >= grid.CellCount() {
		t.Fatalf("interrupted run executed %d cells, want [5, %d)", stats.Executed, grid.CellCount())
	}

	var progressed bool
	got, stats2, err := Run(grid, Options{
		Workers: 2, CheckpointPath: ck, Resume: true,
		Progress: func(done, total int) { progressed = done > 0 && total == grid.CellCount() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed == 0 || stats2.Resumed != grid.CellCount()-stats2.Executed {
		t.Fatalf("resume accounting off: resumed=%d executed=%d total=%d",
			stats2.Resumed, stats2.Executed, grid.CellCount())
	}
	if !progressed {
		t.Error("Progress callback never fired")
	}
	gotB, err := got.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("resumed artifact differs from uninterrupted artifact")
	}

	// A second resume from the now-complete checkpoint re-runs nothing.
	again, stats3, err := Run(grid, Options{Workers: 2, CheckpointPath: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Executed != 0 || stats3.Resumed != grid.CellCount() {
		t.Fatalf("full-checkpoint resume executed %d resumed %d", stats3.Executed, stats3.Resumed)
	}
	againB, err := again.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(againB, wantB) {
		t.Fatal("checkpoint-only artifact differs")
	}
}

// TestCheckpointTornTailDropped simulates a kill mid-append: a checkpoint
// with a half-written last line resumes cleanly and still converges to the
// uninterrupted artifact.
func TestCheckpointTornTailDropped(t *testing.T) {
	grid := smallGrid()
	want, _, err := Run(grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := want.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := Run(grid, Options{Workers: 1, CheckpointPath: ck, StopAfter: 3}); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	f, err := os.OpenFile(ck, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"scenario":"storm","seed_idx":1,"vari`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, _, err := Run(grid, Options{Workers: 1, CheckpointPath: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := got.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("artifact after torn-tail resume differs")
	}
}

// TestCheckpointRejectsForeignGrid: a checkpoint written by one grid must
// not silently seed a different grid's sweep.
func TestCheckpointRejectsForeignGrid(t *testing.T) {
	grid := smallGrid()
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := Run(grid, Options{Workers: 1, CheckpointPath: ck, StopAfter: 2}); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	other := grid
	other.BaseSeed = 777
	if _, _, err := Run(other, Options{Workers: 1, CheckpointPath: ck, Resume: true}); err == nil {
		t.Fatal("resume with a different grid accepted")
	}
}

// TestCellAllocationBudget: bytes allocated per cell over one quick
// chaos-suite batch, set-up included. A what-if leg used to allocate (and
// zero) its whole 8,192-event journal ring up front — 655 KB of a cell's
// 1,095 KB, for a few hundred events — and every estimator-free leg used to
// plan from scratch instead of replaying its input's shared trace (473 KB).
// The budget sits about a quarter above what a cell costs now.
func TestCellAllocationBudget(t *testing.T) {
	const budgetKB = 310 // measured 245
	grid := ChaosSuiteGrid(4, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	art, _, err := Run(grid, Options{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(art.Cells))
	t.Logf("%.0f KB allocated per cell over %d cells", perCell, len(art.Cells))
	if perCell > budgetKB {
		t.Fatalf("%.0f KB allocated per cell, budget %d KB", perCell, budgetKB)
	}
}
