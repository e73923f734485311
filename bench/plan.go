package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	spotweb "repro"
	"repro/internal/federation"
	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/risk"
	"repro/internal/solver"
	"repro/internal/trace"
)

// Planning workloads: receding-horizon rounds of spotweb.Controller.Step over
// a seeded catalog and a Wikipedia-like hourly trace. plan_single is one
// 288-market catalog (Fig. 7b's largest size) with the risk overlay attached;
// plan_fed is a 2,000-market federation planned over 40 shards.
const (
	// planWarmHours of history precede the first measured round: the workload
	// predictor is fed the trace's first two weeks during set-up and planning
	// starts at that hour, so every round pays the full 14-day covariance
	// window and a run's median does not depend on how far into a cold-start
	// ramp the machine got.
	planWarmHours = 24 * 14
	// planHours sizes the catalog and the trace: two weeks of history plus
	// six of planning, several times what a run at today's speed consumes.
	planHours = planWarmHours + 24*42
	// The deterministic window: cost, under-provisioning and the counts
	// digest are taken over exactly these first rounds (a week single, ten
	// days federated), whatever the machine's speed, so they repeat exactly
	// at a seed.
	planDetRoundsSingle = 24 * 7
	planDetRoundsFed    = 24 * 10
	allocSlack          = 1e-6
)

type planKind int

const (
	planSingle planKind = iota
	planFed
)

// planEnv is everything a planning run needs, generated from the seed.
type planEnv struct {
	t0        int // first planned interval
	cat       *market.Catalog
	fed       *federation.Federation
	wl        *trace.Series
	opt       portfolio.Config
	fedCfg    federation.PlannerConfig
	est       *risk.Estimator // plan_single only
	ctrl      *spotweb.Controller
	detRounds int
	revRNG    *rand.Rand
}

// splinePredictor builds the controller's default workload predictor, so the
// harness can hand identical fresh instances to a Controller and to a round
// composed from the planner's public pieces.
func splinePredictor(cat *market.Catalog, horizon int) *predict.SplinePredictor {
	return predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: cat.StepHrs, ARLag1: true, CIProb: 0.99,
	}, horizon)
}

// newPlanEnv generates the inputs and wires the controller: the set-up a
// user pays before the first planning round.
func newPlanEnv(kind planKind, seed int64) (*planEnv, error) {
	e := &planEnv{revRNG: rand.New(rand.NewSource(seed ^ 0x5eed))}
	wcfg := trace.WikipediaLike(seed)
	wcfg.Days = planHours / 24
	e.wl = wcfg.Generate()
	e.t0 = planWarmHours
	copt := spotweb.ControllerOptions{}
	switch kind {
	case planSingle:
		e.cat = market.CatalogConfig{
			Seed: universeSeed, NumTypes: 144, IncludeOnDemand: true, Hours: planHours,
		}.Generate()
		e.opt = portfolio.Config{Horizon: 6, ChurnKappa: 1}.WithDefaults()
		e.est = risk.New(risk.Config{}, e.cat)
		e.detRounds = planDetRoundsSingle
		copt.Risk = e.est
	case planFed:
		fed, err := federation.Build(federation.Config{
			Regions: 4, AZsPerRegion: 10, TypesPerAZ: 50, Hours: planHours, Seed: universeSeed,
		})
		if err != nil {
			return nil, err
		}
		e.fed, e.cat = fed, fed.Merged
		e.opt = portfolio.Config{Horizon: 4, Parallelism: senders()}.WithDefaults()
		e.fedCfg = federation.PlannerConfig{Parallelism: senders()}
		e.detRounds = planDetRoundsFed
		copt.Federation, copt.FederationPlanner = fed, e.fedCfg
	}
	copt.Catalog, copt.Optimizer = e.cat, e.opt
	copt.Workload = e.warmPredictor(e.cat)
	ctrl, err := spotweb.NewController(copt)
	if err != nil {
		return nil, err
	}
	e.ctrl = ctrl
	return e, nil
}

// warmPredictor returns the controller's default workload predictor with the
// trace's first planWarmHours already observed.
func (e *planEnv) warmPredictor(cat *market.Catalog) *predict.SplinePredictor {
	p := splinePredictor(cat, e.opt.Horizon)
	for _, v := range e.wl.Values[:e.t0] {
		p.Observe(v)
	}
	return p
}

// end is the first interval the trace and catalog can no longer feed.
func (e *planEnv) end() int { return planHours - e.opt.Horizon - 1 }

// planStats accumulates the per-round observations of one planning run.
type planStats struct {
	stepMS      timing
	solveMS     timing // Plan.SolveTime per round
	iterations  int
	solveTime   time.Duration
	warm        int
	nonconv     int
	rounds      int
	cost        float64
	underprov   int
	detDone     int
	digestState []byte
}

// checkDecision applies the plan output checks: first-interval allocation
// within [AMin, AMax] and under the per-market cap, finite objective.
func (e *planEnv) checkDecision(dec *spotweb.Decision) error {
	first := dec.Plan.First()
	var sum float64
	for i, a := range first {
		if a < -allocSlack || a > e.opt.AMaxPerMarket+allocSlack {
			return fmt.Errorf("allocation %g of market %d outside [0, %g]", a, i, e.opt.AMaxPerMarket)
		}
		sum += a
	}
	if sum < e.opt.AMin-allocSlack || sum > e.opt.AMax+allocSlack {
		return fmt.Errorf("total allocation %g outside [%g, %g]", sum, e.opt.AMin, e.opt.AMax)
	}
	if !finite(dec.Plan.Objective) {
		return fmt.Errorf("objective %v is not finite", dec.Plan.Objective)
	}
	return nil
}

// observe folds one accepted round into the stats: timing, solver health,
// and — inside the deterministic window — cost, under-provisioning and the
// counts digest.
func (e *planEnv) observe(st *planStats, t int, dec *spotweb.Decision, dt time.Duration) {
	st.rounds++
	st.stepMS = append(st.stepMS, float64(dt)/1e6)
	st.iterations += dec.Plan.Iterations
	st.solveTime += dec.Plan.SolveTime
	st.solveMS = append(st.solveMS, float64(dec.Plan.SolveTime)/1e6)
	if dec.Plan.WarmStarted {
		st.warm++
	}
	if dec.Plan.Status != solver.StatusSolved {
		st.nonconv++
	}
	if t-e.t0 >= e.detRounds {
		return
	}
	st.detDone++
	for i, n := range dec.Counts {
		if n > 0 {
			st.cost += float64(n) * e.cat.Markets[i].PriceAt(t+1) * e.cat.StepHrs
			var rec [12]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(t))
			binary.LittleEndian.PutUint32(rec[4:], uint32(i))
			binary.LittleEndian.PutUint32(rec[8:], uint32(n))
			st.digestState = append(st.digestState, rec[:]...)
		}
	}
	if dec.Capacity < e.wl.Values[t+1] {
		st.underprov++
	}
}

// feedRisk closes interval t for the risk estimator: revocations sampled
// from the catalog's declared probabilities on the markets holding servers,
// then one ObserveInterval with the exposure and price snapshot.
func (e *planEnv) feedRisk(t int, counts []int, tr *tracer, parent int) {
	if e.est == nil {
		return
	}
	n := e.cat.Len()
	exposed := make([]bool, n)
	prices := make([]float64, n)
	for i, m := range e.cat.Markets {
		prices[i] = m.PriceAt(t)
		if counts[i] > 0 {
			exposed[i] = true
			if m.Transient && e.revRNG.Float64() < m.FailProbAt(t) {
				e.est.ObserveRevocation(i, false)
			}
		}
	}
	id := tr.begin("risk.Estimator.ObserveInterval", parent, int64(t))
	e.est.ObserveInterval(t, exposed, prices)
	tr.end(id)
}

// runUntraced is the end-to-end measurement: Controller.Step per round until
// the deadline, never stopping inside the deterministic window (detRounds 0
// for the reference segment of a traced run, which has none).
func (e *planEnv) runUntraced(d time.Duration, detRounds int, rep *report) *planStats {
	e.detRounds = detRounds
	st := &planStats{}
	deadline := time.Now().Add(d)
	for t := e.t0; t < e.end(); t++ {
		if t-e.t0 >= e.detRounds && time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		dec, err := e.ctrl.Step(t, e.wl.Values[t])
		dt := time.Since(t0)
		rep.Attempted++
		if err == nil {
			err = e.checkDecision(dec)
		}
		if err != nil {
			rep.Failed++
			if rep.Failed <= 3 {
				rep.failf("round %d: %v", t, err)
			}
			continue
		}
		e.observe(st, t, dec, dt)
		e.feedRisk(t, dec.Counts, nil, -1)
	}
	return st
}

// finish turns the stats into the end-to-end metrics.
func (st *planStats) finish(e *planEnv, rep *report, wall time.Duration) {
	rep.setN("op_p50_ms", st.stepMS.pct(50), len(st.stepMS))
	rep.setN("op_p90_ms", st.stepMS.pct(90), len(st.stepMS))
	rep.noteTop("round", st.stepMS)
	rep.set("ops_per_s", float64(st.rounds)/wall.Seconds())
	rep.set("cost_usd", st.cost)
	if st.detDone > 0 {
		rep.set("ok_share", 1-float64(st.underprov)/float64(st.detDone))
	}
	if st.detDone < e.detRounds {
		rep.failf("only %d of the %d deterministic rounds completed", st.detDone, e.detRounds)
	}
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256(st.digestState))
}

// runPlan is the workload entry point for plan_single and plan_fed.
func runPlan(kind planKind, o runOpts, rep *report) error {
	if o.trace {
		return runPlanTraced(kind, o, rep)
	}
	env, setups, err := repeatSetup(
		func() (*planEnv, error) { return newPlanEnv(kind, o.seed) }, func(*planEnv) {})
	if err != nil {
		return err
	}
	rep.setN("setup_s", setups.median(), len(setups))
	rss := startRSS()
	a0, t0 := totalAllocBytes(), time.Now()
	st := env.runUntraced(o.window(), env.detRounds, rep)
	wall := time.Since(t0)
	st.finish(env, rep, wall)
	if st.rounds > 0 {
		rep.notef("alloc %.1f KB/round, %d non-converged rounds, warm share %.3f",
			float64(totalAllocBytes()-a0)/1024/float64(st.rounds), st.nonconv, float64(st.warm)/float64(st.rounds))
	}
	rss.record(rep)
	return nil
}

// --- traced run -----------------------------------------------------------

// timedPredictor spans the workload predictor's calls.
type timedPredictor struct {
	p      predict.Predictor
	tr     *tracer
	parent *int
	op     *int64
}

func (p timedPredictor) Observe(v float64) {
	id := p.tr.begin("predict.SplinePredictor.Observe", *p.parent, *p.op)
	p.p.Observe(v)
	p.tr.end(id)
}

func (p timedPredictor) Predict(h int) []float64 {
	id := p.tr.begin("predict.SplinePredictor.Predict", *p.parent, *p.op)
	out := p.p.Predict(h)
	p.tr.end(id)
	return out
}

// timedOverlay spans the risk estimator's Overlay call.
type timedOverlay struct {
	o      portfolio.OverlayProvider
	tr     *tracer
	parent *int
	op     *int64
}

func (o timedOverlay) Overlay() *market.Overlay {
	id := o.tr.begin("risk.Estimator.Overlay", *o.parent, *o.op)
	ov := o.o.Overlay()
	o.tr.end(id)
	return ov
}

// composedRound plans a round from the same public pieces
// portfolio.Planner.Step uses — InputBuilder.Build → Catalog.CovarianceMatrix
// → WarmSolver.Solve/Shift → ServerCounts — with a span around each, so the
// trace shows where a round's wall time goes. The harness asserts its counts
// equal Controller.Step's on every round.
type composedRound struct {
	cfg       portfolio.Config
	cat       *market.Catalog
	builder   portfolio.InputBuilder
	ws        portfolio.WarmSolver
	prevAlloc linalg.Vector
	covWindow int
	caps      []float64

	tr     *tracer
	parent int   // span the next layer call hangs under
	op     int64 // current round
}

func newComposedRound(e *planEnv, tr *tracer, reg *metrics.Registry) *composedRound {
	c := &composedRound{
		cfg: e.opt, cat: e.cat, tr: tr,
		covWindow: int(14 * 24 / e.cat.StepHrs),
		caps:      make([]float64, e.cat.Len()),
	}
	for i, m := range e.cat.Markets {
		c.caps[i] = m.Type.Capacity
	}
	c.builder = portfolio.InputBuilder{
		Workload: timedPredictor{p: e.warmPredictor(e.cat), tr: tr, parent: &c.parent, op: &c.op},
		Source:   portfolio.MeanRevertSource{Cat: e.cat},
		Metrics:  reg,
	}
	if e.est != nil {
		c.builder.RiskOverlay = timedOverlay{o: e.est, tr: tr, parent: &c.parent, op: &c.op}
	}
	c.ws.Metrics = reg
	return c
}

// step plans interval t+1.
func (c *composedRound) step(t int, lambda float64) (*portfolio.Decision, error) {
	c.op = int64(t)
	root := c.tr.begin("round.composed", -1, c.op)
	defer c.tr.end(root)

	c.parent = c.tr.begin("portfolio.InputBuilder.Build", root, c.op)
	in, epoch := c.builder.Build(t, c.cfg.Horizon, lambda)
	c.tr.end(c.parent)

	id := c.tr.begin("market.Catalog.CovarianceMatrix", root, c.op)
	in.Risk = c.cat.CovarianceMatrix(t, c.covWindow)
	c.tr.end(id)
	in.PrevAlloc = c.prevAlloc

	id = c.tr.begin("portfolio.WarmSolver.Solve", root, c.op)
	plan, err := c.ws.Solve(c.cfg, c.cat, in, epoch)
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = c.tr.begin("portfolio.WarmSolver.Shift", root, c.op)
	c.ws.Shift(c.cat.Len())
	c.tr.end(id)
	c.prevAlloc = plan.First().Clone()

	id = c.tr.begin("portfolio.ServerCounts", root, c.op)
	counts := portfolio.ServerCounts(plan.First(), in.Lambda[0], c.caps, 0.05)
	c.tr.end(id)
	return &portfolio.Decision{
		Plan: plan, Counts: counts, PredictedLambda: in.Lambda[0],
		Capacity: portfolio.CapacityOf(counts, c.caps),
	}, nil
}

// perOp sums, per operation id, the durations (or self times) of the spans
// with one of the given names, in microseconds.
func perOp(spans []span, self bool, names ...string) timing {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var st map[int]int64
	if self {
		st = selfTimes(spans)
	}
	sums := map[int64]float64{}
	var order []int64
	for _, s := range spans {
		if !want[s.Name] {
			continue
		}
		d := s.End - s.Start
		if self {
			d = st[s.ID]
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += float64(d) / 1e3
	}
	out := make(timing, 0, len(order))
	for _, op := range order {
		out = append(out, sums[op])
	}
	return out
}

// coldSolveMS times one cold portfolio.Optimize of in under cfg.
func coldSolveMS(cfg portfolio.Config, in *portfolio.Inputs) (float64, error) {
	cfg.DisableWarmStart = true
	t0 := time.Now()
	_, err := portfolio.Optimize(cfg, in)
	return float64(time.Since(t0)) / 1e6, err
}

// coldSolverLedger fills solver.fista_cold_ms and solver.admm_sparse_cold_ms:
// the same inputs solved cold by the default FISTA backend and by ADMM on the
// structured sparse KKT path (reachable only through Config.Solver).
func coldSolverLedger(cfg portfolio.Config, in *portfolio.Inputs, rep *report) {
	fista := cfg
	fista.Solver = portfolio.SolverFISTA
	if ms, err := coldSolveMS(fista, in); err != nil {
		rep.failf("cold FISTA solve: %v", err)
	} else {
		rep.set("solver.fista_cold_ms", ms)
	}
	admm := cfg
	admm.Solver, admm.KKT = portfolio.SolverADMM, portfolio.KKTSparse
	if ms, err := coldSolveMS(admm, in); err != nil {
		rep.failf("cold ADMM/sparse solve: %v", err)
	} else {
		rep.set("solver.admm_sparse_cold_ms", ms)
	}
}

// firstRoundInputs assembles the solver inputs of the first planned round
// over cat (the whole catalog or one shard's) from the planner's public
// pieces.
func (e *planEnv) firstRoundInputs(cat *market.Catalog) *portfolio.Inputs {
	b := portfolio.InputBuilder{
		Workload: e.warmPredictor(cat),
		Source:   portfolio.MeanRevertSource{Cat: cat},
	}
	in, _ := b.Build(e.t0, e.opt.Horizon, e.wl.Values[e.t0])
	in.Risk = cat.CovarianceMatrix(e.t0, int(14*24/cat.StepHrs))
	return in
}

// layerMetrics fills the solver-health metrics both planning workloads
// share.
func (st *planStats) layerMetrics(rep *report, allocBytes uint64, perIteration bool) {
	if st.rounds == 0 {
		return
	}
	r := float64(st.rounds)
	rep.setN("solver.iterations_per_round", float64(st.iterations)/r, st.rounds)
	if perIteration && st.iterations > 0 {
		rep.set("solver.us_per_iteration", float64(st.solveTime)/1e3/float64(st.iterations))
	}
	rep.set("portfolio.warm_share", float64(st.warm)/r)
	rep.set("portfolio.nonconverged_rounds", float64(st.nonconv))
	rep.set("portfolio.alloc_kb_per_round", float64(allocBytes)/1024/r)
}

func runPlanTraced(kind planKind, o runOpts, rep *report) error {
	if kind == planFed {
		return runFedTraced(o, rep)
	}
	// Everything a traced run does, probes included, fits in the window.
	deadline := time.Now().Add(o.window())
	env, err := newPlanEnv(planSingle, o.seed)
	if err != nil {
		return err
	}
	coldSolverLedger(env.opt, env.firstRoundInputs(env.cat), rep)
	tr := newTracer()
	reg := metrics.NewRegistry()
	comp := newComposedRound(env, tr, reg)
	st := &planStats{}
	var ctrlMS, compMS timing
	mismatches := 0
	var allocBytes uint64
	for t := env.t0; t < env.end() && time.Now().Before(deadline); t++ {
		lambda := env.wl.Values[t]
		rep.Attempted++

		// Reference: the untraced public entry point on the same inputs.
		t0 := time.Now()
		ref, err := env.ctrl.Step(t, lambda)
		refDT := time.Since(t0)
		if err == nil {
			err = env.checkDecision(ref)
		}
		if err != nil {
			rep.Failed++
			rep.failf("round %d: %v", t, err)
			break
		}
		ctrlMS = append(ctrlMS, float64(refDT)/1e6)

		a0 := totalAllocBytes()
		t0 = time.Now()
		dec, err := comp.step(t, lambda)
		compDT := time.Since(t0)
		allocBytes += totalAllocBytes() - a0
		if err != nil {
			rep.Failed++
			rep.failf("composed round %d: %v", t, err)
			break
		}
		compMS = append(compMS, float64(compDT)/1e6)
		for i := range dec.Counts {
			if dec.Counts[i] != ref.Counts[i] {
				mismatches++
				break
			}
		}
		env.observe(st, t, &spotweb.Decision{Plan: dec.Plan, Counts: dec.Counts, Capacity: dec.Capacity}, compDT)
		env.feedRisk(t, ref.Counts, tr, -1)
	}
	if mismatches > 0 {
		rep.failf("composed round disagreed with Controller.Step on %d of %d rounds", mismatches, st.rounds)
	}

	spans := tr.closed()
	put := func(metric string, t timing, scale float64) {
		if len(t) > 0 {
			rep.setN(metric, t.median()*scale, len(t))
		}
	}
	put("predict.observe_predict_us", perOp(spans, false, "predict.SplinePredictor.Observe", "predict.SplinePredictor.Predict"), 1)
	put("risk.overlay_us", perOp(spans, false, "risk.Estimator.Overlay"), 1)
	put("risk.observe_interval_us", perOp(spans, false, "risk.Estimator.ObserveInterval"), 1)
	put("portfolio.input_build_us", perOp(spans, true, "portfolio.InputBuilder.Build"), 1)
	put("market.covariance_us", perOp(spans, false, "market.Catalog.CovarianceMatrix"), 1)
	put("portfolio.solve_ms", perOp(spans, false, "portfolio.WarmSolver.Solve", "portfolio.WarmSolver.Shift"), 1e-3)
	put("portfolio.integerize_us", perOp(spans, false, "portfolio.ServerCounts"), 1)
	st.layerMetrics(rep, allocBytes, true)
	rep.set("portfolio.cold_fallbacks",
		float64(reg.Counter("spotweb_planner_fallback_total", "").Value()))

	// Self times of the layer spans must account for the composed round.
	rounds := perOp(spans, false, "round.composed")
	glue := perOp(spans, true, "round.composed")
	if tot := rounds.sum(); tot > 0 {
		share := glue.sum() / tot
		rep.set("harness.round_glue_pct", 100*share)
		if share > 0.05 {
			rep.failf("layer self times cover only %.1f%% of the composed round", 100*(1-share))
		}
	}
	if len(ctrlMS) > 0 && ctrlMS.median() > 0 {
		rep.set("metrics.trace_overhead_pct", 100*(compMS.median()/ctrlMS.median()-1))
		rep.setN("harness.traced_op_p50_ms", compMS.median(), len(compMS))
	}
	return writeSpans(o.tracePath(), spans)
}

// runFedTraced drives a federation.Planner built with the controller's
// configuration directly, so the coordinator's LastStats are readable: the
// Controller hides its planner.
func runFedTraced(o runOpts, rep *report) error {
	deadline := time.Now().Add(o.window())
	env, err := newPlanEnv(planFed, o.seed)
	if err != nil {
		return err
	}
	// Untraced reference segment on the public entry point.
	ref := newReport(o)
	refStats := env.runUntraced(o.refWindow(), 0, ref)

	// One shard's first-round inputs for the cold-solver ledger at small n.
	coldSolverLedger(env.opt, env.firstRoundInputs(env.fed.Shards[0].Cat), rep)

	env, err = newPlanEnv(planFed, o.seed)
	if err != nil {
		return err
	}
	tr := newTracer()
	reg := metrics.NewRegistry()
	pcfg := env.fedCfg
	pcfg.Portfolio = env.opt
	pl := federation.NewPlanner(env.fed, pcfg, env.warmPredictor(env.cat),
		portfolio.MeanRevertSource{Cat: env.cat})
	pl.Metrics = reg

	st := &planStats{}
	var coord, shardP50, shardMax, speedup timing
	fallbacks := 0
	a0 := totalAllocBytes()
	for t := env.t0; t < env.end() && time.Now().Before(deadline); t++ {
		rep.Attempted++
		id := tr.begin("federation.Planner.Step", -1, int64(t))
		t0 := time.Now()
		dec, err := pl.Step(t, env.wl.Values[t])
		dt := time.Since(t0)
		tr.end(id)
		var sd *spotweb.Decision
		if err == nil {
			sd = &spotweb.Decision{Plan: dec.Plan, Counts: dec.Counts, Capacity: dec.Capacity}
			err = env.checkDecision(sd)
		}
		if err != nil {
			rep.Failed++
			rep.failf("round %d: %v", t, err)
			break
		}
		env.observe(st, t, sd, dt)
		ls := pl.LastStats()
		coord = append(coord, float64(ls.Rounds))
		fallbacks += ls.Fallbacks
		ss := timing(ls.ShardSeconds)
		shardP50 = append(shardP50, ss.median()*1e3)
		shardMax = append(shardMax, ss.max()*1e3)
		if ls.WallSeconds > 0 {
			speedup = append(speedup, ss.sum()/ls.WallSeconds)
		}
	}
	// A merged plan's SolveTime is its slowest shard's while its Iterations
	// sum over shards, so time per iteration is not defined here.
	st.layerMetrics(rep, totalAllocBytes()-a0, false)
	if n := len(coord); n > 0 {
		rep.setN("federation.coord_rounds_mean", coord.mean(), n)
		rep.set("federation.fallbacks", float64(fallbacks))
		rep.setN("federation.shard_solve_p50_ms", shardP50.median(), n)
		rep.setN("federation.shard_solve_max_ms", shardMax.median(), n)
		rep.setN("parallel.speedup", speedup.median(), n)
		rep.setN("portfolio.solve_ms", st.solveMS.median(), n)
	}
	rep.set("portfolio.cold_fallbacks",
		float64(reg.Counter("spotweb_planner_fallback_total", "").Value()))
	if len(refStats.stepMS) > 0 && len(st.stepMS) > 0 {
		k := min(len(refStats.stepMS), len(st.stepMS))
		rep.set("metrics.trace_overhead_pct", 100*(st.stepMS[:k].median()/refStats.stepMS[:k].median()-1))
		rep.setN("harness.traced_op_p50_ms", st.stepMS.median(), len(st.stepMS))
	}
	return writeSpans(o.tracePath(), tr.closed())
}
