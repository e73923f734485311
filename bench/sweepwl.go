package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// whatif_sweep: the scenario lab as users run it — sweep.Run over the chaos
// suite grid (5 scenarios × seeds × 5 variants, quick run length), nproc
// workers. A run is a sequence of batches, one sweep.Run each, until the
// deadline; the first sweepDetBatches batches are the deterministic window
// (score, cost and the artifact digest repeat exactly at a seed).
const (
	// sweepBatchSeeds seeds per batch: 5 × 4 × 5 = 100 cells, ≈ 0.27 s at
	// nproc = 2, so a 20-s run yields ≈ 70 per-batch timing samples.
	sweepBatchSeeds = 4
	// sweepPool is the number of distinct batches (see sweepGrid).
	sweepPool = 32
	// sweepDetBatches batches form the deterministic window: the whole pool
	// (3,200 cells), so score and cost cover the same cells at every seed.
	sweepDetBatches = sweepPool
	// sweepSurfaceBatches leading batches of a traced run give the chaos.*
	// surface means.
	sweepSurfaceBatches = 8
	// sweepReplays sampled cells are replayed through a public simulator with
	// a timing policy in the traced run.
	sweepReplays = 50
	// sweepSerialBatches batches are re-run at one worker in the traced run
	// to measure what running cells concurrently costs.
	sweepSerialBatches = 3
)

// sweepGrid is batch b's grid. Batches come from a pinned pool of sweepPool
// base seeds, visited in order from an offset the run seed picks, so every
// run covers the whole pool about twice — cheap and expensive catalogs alike,
// in the same proportion — and differs from seed to seed in where it starts.
func sweepGrid(seed int64, b int) sweep.Grid {
	g := sweep.ChaosSuiteGrid(sweepBatchSeeds, true)
	offset := int(uint64(seed) * 0x9e3779b97f4a7c15 >> 32 % sweepPool)
	g.BaseSeed = universeSeed*1000 + int64((offset+b)%sweepPool)
	return g
}

// sweepSetup precompiles, from public pieces, the shared immutable inputs of
// the deterministic window's batches — one catalog per seed index and one
// compiled environment per (scenario, seed) — which is the set-up sweep.Run
// performs before its first cell. It returns the environments of batch 0 for
// the traced run's replays.
func sweepSetup(seed int64, tr *tracer) ([]*runner.StandardEnv, error) {
	var first []*runner.StandardEnv
	for b := 0; b < sweepDetBatches; b++ {
		g := sweepGrid(seed, b)
		hours := runner.ScenarioHours(g.Quick)
		for si := 0; si < g.Seeds; si++ {
			s := sweep.SeedFor(g.BaseSeed, si)
			var cat *market.Catalog
			for _, name := range g.Scenarios {
				sc, err := chaos.Resolve(name)
				if err != nil {
					return nil, err
				}
				if cat == nil {
					cat = runner.StandardCatalog(s, hours)
				}
				if tr != nil && b == 0 {
					id := tr.begin("chaos.Compile", -1, int64(len(first)))
					_, err := chaos.Compile(sc, s, cat.Len())
					tr.end(id)
					if err != nil {
						return nil, err
					}
				}
				env, err := runner.NewStandardEnvWithCatalog(sc, s, hours, cat)
				if err != nil {
					return nil, err
				}
				if b == 0 {
					first = append(first, env)
				}
			}
		}
	}
	return first, nil
}

// sweepStats accumulates the batches of one run.
type sweepStats struct {
	cells      int
	msPerCell  timing // one sample per batch: wall ms ÷ cells
	batchWall  timing // seconds per batch
	scoreSum   float64
	costSum    float64
	sloSum     float64
	recSum     float64
	recCells   int
	never      int
	detCells   int
	detBatches int
	hash       []byte // concatenated SHA-256 of the deterministic artifacts
}

// runBatch executes batch b and folds it into the stats; cells that error or
// carry a non-finite or out-of-range field count as failed.
func (st *sweepStats) runBatch(seed int64, b, workers int, det bool, tr *tracer, rep *report) {
	g := sweepGrid(seed, b)
	rep.Attempted += g.CellCount()
	id := tr.begin("sweep.Run", -1, int64(b))
	t0 := time.Now()
	art, stats, err := sweep.Run(g, sweep.Options{Workers: workers})
	wall := time.Since(t0)
	tr.end(id)
	if err != nil {
		rep.Failed += g.CellCount()
		rep.failf("batch %d: %v", b, err)
		return
	}
	if stats.Executed != g.CellCount() || len(art.Cells) != g.CellCount() {
		rep.failf("batch %d executed %d of %d cells", b, stats.Executed, g.CellCount())
	}
	for _, c := range art.Cells {
		bad := c.Score < 0 || c.Score > 100
		for _, v := range []float64{c.Score, c.SLOAttainmentPct, c.ViolationPct, c.DropFraction,
			c.CostUSD, c.BaselineCostUSD, c.CostDeltaPct, c.RecoverySecs} {
			bad = bad || !finite(v)
		}
		if bad {
			rep.Failed++
			if rep.Failed <= 3 {
				rep.failf("batch %d cell %v has a non-finite field or a score outside [0,100]", b, c.CellRef)
			}
			continue
		}
		if det {
			st.detCells++
			st.scoreSum += c.Score
			st.costSum += c.CostUSD
			st.sloSum += c.SLOAttainmentPct
			if c.RecoverySecs < 0 {
				st.never++
			} else {
				st.recSum += c.RecoverySecs
				st.recCells++
			}
		}
	}
	st.cells += len(art.Cells)
	st.msPerCell = append(st.msPerCell, float64(wall)/1e6/float64(len(art.Cells)))
	st.batchWall = append(st.batchWall, wall.Seconds())
	if det {
		st.detBatches++
		enc, err := art.EncodeJSON()
		if err != nil {
			rep.failf("batch %d: encode artifact: %v", b, err)
			return
		}
		sum := sha256.Sum256(enc)
		st.hash = append(st.hash, sum[:]...)
	}
}

// runFor runs batches 0, 1, … at nproc workers until the deadline; the
// first detN batches are the deterministic window and always complete.
func (st *sweepStats) runFor(seed int64, deadline time.Time, detN int, tr *tracer, rep *report) time.Duration {
	t0 := time.Now()
	for b := 0; b < detN || time.Now().Before(deadline); b++ {
		st.runBatch(seed, b, senders(), b < detN, tr, rep)
		if len(rep.Checks) > 8 {
			break
		}
	}
	return time.Since(t0)
}

func runSweep(o runOpts, rep *report) error {
	if o.trace {
		return runSweepTraced(o, rep)
	}
	_, setups, err := repeatSetup(
		func() ([]*runner.StandardEnv, error) { return sweepSetup(o.seed, nil) },
		func([]*runner.StandardEnv) {})
	if err != nil {
		return err
	}
	rep.setN("setup_s", setups.median(), len(setups))

	rss := startRSS()
	// One unmeasured batch first: the process's first sweep pays page faults
	// and heap growth no later one does.
	(&sweepStats{}).runBatch(o.seed, sweepPool-1, senders(), false, nil, newReport(o))

	st := &sweepStats{}
	wall := st.runFor(o.seed, time.Now().Add(o.window()), sweepDetBatches, nil, rep)
	// Percentiles over whole passes through the pool only, so every run ranks
	// the same batches: three of the 32 are about twice as expensive as the
	// rest, and a partial pass would move the p90 by whether it reached them.
	whole := st.msPerCell[:len(st.msPerCell)/sweepPool*sweepPool]
	rep.setN("op_p50_ms", whole.pct(50), len(whole))
	rep.setN("op_p90_ms", whole.pct(90), len(whole))
	rep.noteTop("batch wall per cell", whole)
	rep.set("ops_per_s", float64(st.cells)/wall.Seconds())
	if st.detCells > 0 {
		rep.setN("ok_share", st.scoreSum/float64(st.detCells)/100, st.detCells)
		rep.setN("cost_usd", st.costSum/float64(st.detCells), st.detCells)
	}
	if st.detBatches < sweepDetBatches {
		rep.failf("only %d of the %d deterministic batches completed", st.detBatches, sweepDetBatches)
	}
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256(st.hash))
	rss.record(rep)
	return nil
}

// timedPolicy is a sim.Policy that plans with the portfolio planner and
// times every Decide — the planner's share of a simulated leg, taken from
// outside both packages.
type timedPolicy struct {
	planner *portfolio.Planner
	spent   time.Duration
}

func (p *timedPolicy) Name() string { return "spotweb" }

func (p *timedPolicy) Decide(t int, observed float64) ([]int, error) {
	t0 := time.Now()
	dec, err := p.planner.Step(t, observed)
	p.spent += time.Since(t0)
	if err != nil {
		return nil, err
	}
	return dec.Counts, nil
}

// replayLeg runs one chaos leg of env through a public simulator, as the
// runner does for the default variant, and returns the leg's wall time and
// the part spent in the planner.
func replayLeg(env *runner.StandardEnv, scratch *sim.Scratch) (leg, decide time.Duration, err error) {
	cfg := runner.BasePortfolioConfig()
	pol := &timedPolicy{planner: portfolio.NewPlanner(cfg, env.Spiked,
		splinePredictor(env.Spiked, cfg.Horizon), portfolio.MeanRevertSource{Cat: env.Spiked})}
	s := &sim.Simulator{
		Cfg: sim.Config{
			Seed: env.Seed, TransiencyAware: true, Chaos: env.Injector,
			Journal: metrics.NewJournal(8192), SubSteps: env.SubSteps,
		},
		Cat: env.Spiked, Workload: env.Workload, Policy: pol, Scratch: scratch,
	}
	t0 := time.Now()
	_, err = s.Run()
	return time.Since(t0), pol.spent, err
}

func runSweepTraced(o runOpts, rep *report) error {
	// Everything a traced run does, probes included, fits in the window.
	deadline := time.Now().Add(o.window())
	tr := newTracer()
	envs, err := sweepSetup(o.seed, tr)
	if err != nil {
		return err
	}

	// Untraced reference segment on the batches the traced segment repeats.
	ref := &sweepStats{}
	ref.runFor(o.seed, time.Now().Add(o.refWindow()), 0, nil, newReport(o))

	// The first batches again at one worker, for the engine overhead.
	serial := &sweepStats{}
	for b := 0; b < sweepSerialBatches; b++ {
		serial.runBatch(o.seed, b, 1, false, nil, newReport(o))
	}

	// Where a cell's time goes: replay sampled chaos legs with a timing
	// policy around the planner.
	scratch := sim.NewScratch()
	var legMS, decideMS timing
	var legSum, decSum time.Duration
	for i := 0; i < sweepReplays; i++ {
		id := tr.begin("sim.Simulator.Run", -1, int64(i))
		leg, dec, err := replayLeg(envs[i%len(envs)], scratch)
		tr.end(id)
		if err != nil {
			rep.failf("replay %d: %v", i, err)
			break
		}
		legMS = append(legMS, float64(leg)/1e6)
		decideMS = append(decideMS, float64(dec)/1e6)
		legSum += leg
		decSum += dec
	}
	if len(legMS) > 0 {
		rep.setN("sim.leg_ms", legMS.median(), len(legMS))
		rep.setN("portfolio.decide_ms_per_leg", decideMS.median(), len(decideMS))
		rep.set("portfolio.decide_share", float64(decSum)/float64(legSum))
	}

	// Traced segment; its first batches give the deterministic surfaces.
	st := &sweepStats{}
	a0, c0 := totalAllocBytes(), cpuSeconds()
	st.runFor(o.seed, deadline, sweepSurfaceBatches, tr, rep)
	alloc, cpu := totalAllocBytes()-a0, cpuSeconds()-c0
	if st.cells == 0 {
		return fmt.Errorf("no cell completed")
	}
	cells := float64(st.cells)
	rep.set("sweep.alloc_kb_per_cell", float64(alloc)/1024/cells)
	rep.set("sweep.cpu_s_per_kcell", cpu/cells*1000)
	rep.setN("harness.traced_op_p50_ms", st.msPerCell.median(), len(st.msPerCell))
	if k := min(len(ref.msPerCell), len(st.msPerCell)); k > 0 {
		// Same batches on both sides: the reference segment's, traced again.
		rep.set("metrics.trace_overhead_pct", 100*(st.msPerCell[:k].median()/ref.msPerCell[:k].median()-1))
	}
	if st.detCells > 0 {
		n := float64(st.detCells)
		rep.setN("chaos.slo_attain_pct_mean", st.sloSum/n, st.detCells)
		rep.setN("chaos.cost_usd_mean", st.costSum/n, st.detCells)
		if st.recCells > 0 {
			rep.setN("chaos.recovery_s_mean", st.recSum/float64(st.recCells), st.recCells)
		}
		rep.set("chaos.never_recovered_cells", float64(st.never))
	}

	// Engine overhead: what is left of workers × wall after the same batches'
	// serial time is the cost of running cells concurrently (idle workers,
	// contention, GC).
	var serialS, parS float64
	for b := 0; b < len(serial.batchWall) && b < len(st.batchWall); b++ {
		serialS += serial.batchWall[b]
		parS += st.batchWall[b]
	}
	if parS > 0 {
		w := float64(senders())
		rep.set("sweep.engine_overhead_pct", 100*(w*parS-serialS)/(w*parS))
	}

	spans := tr.closed()
	if t := perOp(spans, false, "chaos.Compile"); len(t) > 0 {
		rep.setN("chaos.compile_us", t.median(), len(t))
	}
	return writeSpans(o.tracePath(), spans)
}
