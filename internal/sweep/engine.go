package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// ErrStopped is returned by Run when Options.StopAfter halted the sweep
// early; completed cells are in the checkpoint and a Resume run finishes the
// grid.
var ErrStopped = errors.New("sweep: run stopped early (StopAfter reached; resume from checkpoint)")

// Options controls sweep execution. The zero value runs serially with no
// checkpoint.
type Options struct {
	// Workers is the number of concurrent cell workers (<=1 runs serially).
	// Workers are NOT clamped to the core count; the engine's scaling
	// benchmarks need widths beyond one core. Before the run's last group a
	// worker idles only while another builds a decision trace it needs
	// (runner.PlanCache, reported as Stats.PlanWaitSec), which claimOrder
	// keeps rare, so a worker beyond the core count mostly queues for CPU.
	Workers int
	// CheckpointPath, when set, appends every completed cell to a JSONL
	// checkpoint file (one line per cell, after a header binding the file
	// to this grid).
	CheckpointPath string
	// Resume loads previously completed cells from CheckpointPath and skips
	// them, instead of truncating the file. A torn trailing line (killed
	// mid-write) is discarded.
	Resume bool
	// StopAfter, when positive, stops claiming new cells once this many
	// cells have been executed in THIS run (a few in-flight cells may still
	// complete). Run then returns ErrStopped. This is the kill/resume
	// test's hook.
	StopAfter int
	// Progress, when non-nil, is called after every completed cell with
	// (done, total) counts, under the engine's bookkeeping lock.
	Progress func(done, total int)

	// cellHook replaces real cell execution — benchmarks substitute a
	// calibrated synthetic cell to measure pure engine scaling.
	cellHook func(ref CellRef, seed int64) (CellResult, error)
	// envHook sees every compiled env before the first cell — tests wrap its
	// planner factory to count planner builds.
	envHook func(*runner.Env)
}

// Stats describes one engine run's throughput. It is reported separately
// from the Artifact so artifacts stay byte-deterministic.
type Stats struct {
	Schema      string  `json:"schema"`
	Grid        string  `json:"grid"`
	TotalCells  int     `json:"total_cells"`
	Executed    int     `json:"executed_cells"` // run this session (excludes resumed)
	Resumed     int     `json:"resumed_cells"`
	Workers     int     `json:"workers"`
	Cores       int     `json:"cores"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// QuantileCalls and QuantileHits are the risk legs' Beta-quantile memo
	// lookups and hits, summed over the run's plan caches (one per seed
	// index, shared by every estimator of that seed).
	QuantileCalls int64 `json:"quantile_calls"`
	QuantileHits  int64 `json:"quantile_hits"`
	// PlanTraces and PlanReplays are the decision traces the plan caches
	// built and the estimator-free legs that replayed one, summed over the
	// run's caches like the quantile counts.
	PlanTraces  int64 `json:"plan_traces"`
	PlanReplays int64 `json:"plan_replays"`
	// PlanWaitSec is the time legs spent waiting for a trace another worker
	// was still building, summed over the run's caches; 0 at one worker.
	PlanWaitSec float64 `json:"plan_wait_sec"`
}

// StatsSchema identifies the Stats encoding emitted by cmd/spotweb-sweep.
const StatsSchema = "spotweb-sweep-stats/v1"

// Run expands the grid and executes every cell, returning the aggregated
// artifact and this run's throughput stats.
//
// Execution is grouped by (seed index, variant): each group runs its
// scenarios in order on one worker, so the group's single fault-free
// baseline leg is computed once and reused across all of its scenarios whose
// env marks that leg scenario-independent, and each worker drives every cell
// through one reusable sim.Scratch. The envs of one seed index share one
// runner.PlanCache, so estimator-free legs of every scenario and variant plan
// each distinct planner input once. Workers claim the groups in claimOrder.
// Cell results depend only on the grid (never on scheduling), so artifacts
// are byte-identical at any worker count.
func Run(grid Grid, opts Options) (*Artifact, Stats, error) {
	start := time.Now()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	stats := Stats{
		Schema: StatsSchema, Grid: grid.Name,
		Workers: workers, Cores: runtime.NumCPU(),
	}
	if err := grid.Validate(); err != nil {
		return nil, stats, err
	}

	// Resolve every scenario once, up front.
	scs := make([]*chaos.Scenario, len(grid.Scenarios))
	for i, name := range grid.Scenarios {
		sc, err := chaos.Resolve(name)
		if err != nil {
			return nil, stats, err
		}
		scs[i] = sc
	}

	total := grid.CellCount()
	stats.TotalCells = total

	// Derive the seed axis and precompile the shared immutable inputs: one
	// standard catalog per seed index, one Env per (scenario, seed).
	// Synthetic (cellHook) runs skip the compile.
	seeds := make([]int64, grid.Seeds)
	for i := range seeds {
		seeds[i] = SeedFor(grid.BaseSeed, i)
	}
	var envs [][]*runner.Env // [seedIdx][scenIdx]
	var caches []*runner.PlanCache
	if opts.cellHook == nil {
		hours := grid.hours()
		envs = make([][]*runner.Env, grid.Seeds)
		for si := range seeds {
			envs[si] = make([]*runner.Env, len(scs))
			cat, plans := runner.StandardCatalog(seeds[si], hours), &runner.PlanCache{}
			caches = append(caches, plans)
			for ci, sc := range scs {
				env, err := runner.NewEnv(sc, seeds[si], hours, cat)
				if err != nil {
					return nil, stats, err
				}
				env.SubSteps, env.Plans = grid.SubSteps, plans
				if opts.envHook != nil {
					opts.envHook(env)
				}
				envs[si][ci] = env
			}
		}
	}

	// Load resumed cells and open the checkpoint writer.
	results := make([]*CellResult, total)
	resumed := 0
	var ckValid int64
	if opts.CheckpointPath != "" && opts.Resume {
		done, valid, err := loadCheckpoint(opts.CheckpointPath, grid)
		if err != nil {
			return nil, stats, err
		}
		ckValid = valid
		for ref, cr := range done {
			if idx, ok := refIndex(grid, ref); ok && results[idx] == nil {
				c := cr
				results[idx] = &c
				resumed++
			}
		}
	}
	stats.Resumed = resumed
	var ck *ckWriter
	if opts.CheckpointPath != "" {
		w, err := newCkWriter(opts.CheckpointPath, grid, opts.Resume, ckValid)
		if err != nil {
			return nil, stats, err
		}
		ck = w
		defer ck.close()
	}

	var (
		nextGroup atomic.Int64
		stopped   atomic.Bool
		errOnce   sync.Once
		runErr    error
		failed    atomic.Bool

		mu       sync.Mutex
		done     = resumed
		executed = 0
	)
	setErr := func(err error) {
		errOnce.Do(func() { runErr = err })
		failed.Store(true)
	}
	finishCell := func(idx int, cr CellResult) {
		results[idx] = &cr
		if ck != nil {
			if err := ck.append(cr); err != nil {
				setErr(err)
				return
			}
		}
		mu.Lock()
		done++
		executed++
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
		hitStop := opts.StopAfter > 0 && executed >= opts.StopAfter
		mu.Unlock()
		if hitStop {
			stopped.Store(true)
		}
	}

	order := claimOrder(grid)
	workerFn := func() {
		scratch := sim.NewScratch()
		for !stopped.Load() && !failed.Load() {
			g := int(nextGroup.Add(1)) - 1
			if g >= len(order) {
				return
			}
			seedIdx, varIdx := order[g].seed, order[g].variant
			seed := seeds[seedIdx]
			variant := grid.Variants[varIdx]
			var baseline *sim.Result
			for ci := range scs {
				if stopped.Load() || failed.Load() {
					return
				}
				idx := grid.cellIndex(ci, seedIdx, varIdx)
				if results[idx] != nil {
					continue // resumed from checkpoint
				}
				ref := CellRef{Scenario: grid.Scenarios[ci], SeedIdx: seedIdx, Variant: variant.Name}
				var cr CellResult
				var err error
				if opts.cellHook != nil {
					cr, err = opts.cellHook(ref, seed)
				} else {
					var rep *chaos.Report
					rep, baseline, err = runner.Run(envs[seedIdx][ci], variant.Config, scratch, baseline)
					if err == nil {
						cr, err = toCellResult(ref, seed, rep, grid.KeepReports)
					}
				}
				if err != nil {
					setErr(fmt.Errorf("sweep: cell %v: %w", ref, err))
					return
				}
				finishCell(idx, cr)
			}
		}
	}

	pool := parallel.NewIO(workers)
	fns := make([]func(), workers)
	for i := range fns {
		fns[i] = workerFn
	}
	pool.Do(fns...)
	pool.Close()

	elapsed := time.Since(start)
	for _, c := range caches {
		calls, hits := c.Quantiles.Stats()
		stats.QuantileCalls += calls
		stats.QuantileHits += hits
		traces, replays, wait := c.Stats()
		stats.PlanTraces += traces
		stats.PlanReplays += replays
		stats.PlanWaitSec += wait.Seconds()
	}
	stats.Executed = executed
	stats.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		stats.CellsPerSec = float64(executed) / elapsed.Seconds()
	}
	if runErr != nil {
		return nil, stats, runErr
	}
	if stopped.Load() {
		if ck != nil {
			if err := ck.sync(); err != nil {
				return nil, stats, err
			}
		}
		return nil, stats, ErrStopped
	}

	cells := make([]CellResult, total)
	for i, r := range results {
		if r == nil {
			return nil, stats, fmt.Errorf("sweep: internal error: cell %d never ran", i)
		}
		cells[i] = *r
	}
	return &Artifact{
		Schema:   Schema,
		Grid:     grid,
		Cells:    cells,
		Surfaces: surfaces(grid, cells),
	}, stats, nil
}

// group is one (seed index, variant index) pair of a grid: the unit a worker
// claims and runs the scenarios of.
type group struct{ seed, variant int }

// claimOrder is the order in which workers claim the grid's groups. The
// groups of variants that plan live (RunConfig.Risk: every leg feeds an
// estimator and nothing replays) come first, because they are the longest;
// then every other group, variant-major in grid order. Within a variant the
// seed index varies fastest, so with at least as many seeds as workers the
// groups in flight at once use different seeds' PlanCaches, and a variant
// that only replays another's traces is reached after that builder's group
// was claimed.
func claimOrder(g Grid) []group {
	order := make([]group, 0, g.Seeds*len(g.Variants))
	for _, live := range []bool{true, false} {
		for vi, v := range g.Variants {
			if v.Config.Risk != live {
				continue
			}
			for si := 0; si < g.Seeds; si++ {
				order = append(order, group{si, vi})
			}
		}
	}
	return order
}

// refIndex maps a checkpointed cell back to its flat artifact index.
func refIndex(g Grid, ref CellRef) (int, bool) {
	if ref.SeedIdx < 0 || ref.SeedIdx >= g.Seeds {
		return 0, false
	}
	si, vi := -1, -1
	for i, s := range g.Scenarios {
		if s == ref.Scenario {
			si = i
			break
		}
	}
	for i := range g.Variants {
		if g.Variants[i].Name == ref.Variant {
			vi = i
			break
		}
	}
	if si < 0 || vi < 0 {
		return 0, false
	}
	return g.cellIndex(si, ref.SeedIdx, vi), true
}
