// Package sim is the discrete-event simulator standing in for the paper's
// Python simulator: it drives a provisioning policy (SpotWeb or a baseline)
// against a workload trace and a market catalog, samples correlated
// transient-server revocations, models within-interval capacity dynamics
// (revocation warnings, draining, replacement start-up, cache warm-up) on a
// sub-interval grid, and accounts cost, drops, latency and SLO violations.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Policy decides target per-market server counts for the next interval.
// Implementations live in internal/autoscale (baselines) and wrap the
// portfolio planner (SpotWeb).
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Decide observes the actual workload of interval t and returns the
	// target server counts per market for interval t+1.
	Decide(t int, observedLambda float64) ([]int, error)
}

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives revocation sampling.
	Seed int64
	// WarningSec is the revocation warning period (paper: 30–120 s).
	WarningSec float64
	// StartDelaySec is the VM start-up time (paper measures < 60 s).
	StartDelaySec float64
	// WarmupSec is the cache warm-up window (paper: 30–90 s).
	WarmupSec float64
	// GroupCorrelation is the within-group revocation correlation in [0,1).
	// No caller sets it, and its zero value is in range, so every run
	// samples natural revocations independently (ROADMAP's ρ = 0 FOUND).
	GroupCorrelation float64
	// TransiencyAware selects SpotWeb's LB behaviour; false reproduces the
	// vanilla-HAProxy baseline.
	TransiencyAware bool
	// PerSecondBilling charges servers pro-rata per interval. The default
	// (false) is hourly billing: every started instance-hour is paid in
	// full even if the server is stopped early — the transaction cost that
	// penalizes portfolio churn (§5.1 notes e.g. Azure bills hourly).
	PerSecondBilling bool
	// MaxLifetimeHrs terminates every transient server after this many
	// hours with the standard warning (Google preemptible VMs are killed at
	// 24 h, §7). Zero disables the limit.
	MaxLifetimeHrs float64
	// HighUtil is the utilization threshold of the revocation decision
	// (§6.1): above it the surviving servers cannot absorb a revoked
	// server's load and the LB must reprovision or admission-control.
	HighUtil float64
	// Chaos, when non-nil, injects faults at normalized run times: forced
	// revocation storms, warning delay/loss, capacity slowdowns/flaps,
	// start-delay jitter and forced LB actions. A nil injector is a no-op
	// costing one branch per query.
	Chaos *chaos.Injector
	// Journal, when non-nil, records the revocation lifecycle (warnings,
	// drain decisions, replacement launches, terminations and
	// admission-control transitions) for resilience scoring. Nil is free.
	Journal *metrics.Journal
	// Risk, when non-nil, is fed the revocation/exposure/price stream the
	// online risk estimator consumes (one ObserveInterval per simulated
	// interval, after its revocations fired and before the next planning
	// round). Nil costs one branch per interval.
	Risk cluster.RiskObserver
	// Sentinel enables the sentinel HA recovery loop: on-demand (anchor)
	// markets get stop/restart semantics — planner scale-downs park surplus
	// anchor servers in StateStopped instead of terminating them, a small
	// standby pool is pre-provisioned stopped at bootstrap, and when a
	// revocation forces a reprovision the controller *restarts* stopped
	// anchor capacity (boot delay only, warm caches) before cold-launching
	// replacements — the Containarium restart-vs-recreate gap.
	Sentinel bool
	// QueueDeadlineSec lets the admission controller *delay* rather than
	// drop overload (§4.4: "dropping or delaying requests"): excess
	// requests wait in a bounded FIFO and are served late (counted as SLO
	// violations) unless they would exceed this deadline, in which case
	// they are dropped. Zero disables queueing (pure drop).
	QueueDeadlineSec float64
	// SubSteps is the within-interval simulation resolution (default 60).
	SubSteps int
}

const (
	// detectionDelaySec is how long a transiency-UNAWARE balancer keeps
	// routing to dead servers before health checks notice.
	detectionDelaySec = 10
	// sloLatencySec is the latency SLO threshold (paper: 99% < 1 s), the
	// SLOTarget of cluster.DefaultLatencyModel, the queueing model every
	// run uses.
	sloLatencySec = 1.0
	// sentinelStandby is the number of pre-provisioned stopped standby
	// servers the sentinel keeps.
	sentinelStandby = 2
	// sentinelShare is the fraction of current demand the stopped standby
	// pool must be able to absorb as warm capacity: a correlated storm that
	// takes out the whole serving fleet can be re-covered with restarts
	// alone. Stopped servers are deallocated compute — the pool costs
	// nothing until restarted.
	sentinelShare = 1
)

// WithDefaults fills unset fields with the paper's testbed values.
func (c Config) WithDefaults() Config {
	if c.WarningSec <= 0 {
		c.WarningSec = 120
	}
	if c.StartDelaySec <= 0 {
		c.StartDelaySec = 55
	}
	if c.WarmupSec <= 0 {
		c.WarmupSec = 60
	}
	if c.GroupCorrelation < 0 || c.GroupCorrelation >= 1 {
		c.GroupCorrelation = 0.7
	}
	if c.SubSteps <= 0 {
		c.SubSteps = 60
	}
	if c.HighUtil <= 0 {
		c.HighUtil = 0.85
	}
	return c
}

// IntervalMetrics records one interval of the run.
type IntervalMetrics struct {
	T        int
	Lambda   float64 // offered req/s
	Capacity float64 // mean effective capacity over the interval
	Cost     float64 // $ spent this interval
	Served   float64 // request-seconds served (rate × time)
	Dropped  float64 // request-seconds dropped
	Latency  float64 // served-weighted mean latency (s)
	// Violations is the fraction of offered requests violating the SLO
	// (dropped or served above the latency threshold).
	Violations float64
	// Counts is the per-market live server count at interval end.
	Counts []int
	// Revoked lists markets revoked during the interval.
	Revoked []int
}

// Result aggregates a run.
type Result struct {
	Policy       string
	TotalCost    float64
	Served       float64 // total request-count served (≈ rate·seconds)
	Dropped      float64
	MeanLatency  float64 // served-weighted
	ViolationPct float64 // offered-weighted SLO violation percentage
	Revocations  int     // all revocation events (natural + injected)
	// InjectedRevocations counts chaos-injected revocations (subset of
	// Revocations).
	InjectedRevocations int
	// Actions tallies the LB's revocation decisions by name.
	Actions map[string]int
	// OverloadSecs is the total time offered load exceeded serving capacity
	// (the admission-control regime); AdmissionEvents counts entries into it.
	OverloadSecs    float64
	AdmissionEvents int
	Launches        int
	Stops           int
	// Restarts counts sentinel warm restarts of stopped servers (boot delay
	// only — no cache warm-up), both reactive and planner-driven.
	Restarts  int
	Intervals []IntervalMetrics
	// Attainment is the instantaneous SLO-attainment series sampled at every
	// sub-step — the input to the chaos recovery-time scoring (RecoverySecs
	// needs sub-interval resolution; per-interval numbers cannot tell an
	// 85-second recovery from a 9-minute one). A run given a Scratch writes
	// the series into the scratch's buffer: it is valid until that Scratch's
	// next Run, so read or copy it first. Without a Scratch the result owns
	// it.
	Attainment []chaos.AttainPoint
}

// DropFraction returns dropped / offered.
func (r *Result) DropFraction() float64 {
	total := r.Served + r.Dropped
	if total == 0 {
		return 0
	}
	return r.Dropped / total
}

// Simulator binds a catalog, workload and policy.
type Simulator struct {
	Cfg      Config
	Cat      *market.Catalog
	Workload *trace.Series
	Policy   Policy
	// Scratch, when non-nil, supplies the run's reusable working memory so
	// repeated runs on one goroutine (e.g. sweep cells on a worker) reach
	// steady-state zero allocations per simulated round. Nil makes Run use a
	// private Scratch. A Scratch must not be shared between concurrently
	// running simulators.
	Scratch *Scratch
}

// Scratch is the simulator's reusable working memory: the revocation
// buffers, copula group shocks, exposure/price snapshots, dead-routing
// entries and the ID/server slices the journal and sentinel paths scan —
// everything Run would otherwise rebuild every round — and the buffer the
// last run's Result.Attainment lives in. With a warmed-up
// Scratch a simulated round on the default path allocates nothing beyond
// the result arrays Run preallocates once (asserted by the AllocsPerRun
// regression test), which is what keeps thousand-cell sweeps off the
// garbage collector.
type Scratch struct {
	exposed    []bool
	prices     []float64
	groupShock []float64
	groupSet   []bool
	blacked    []bool
	revoked    []bool
	revs       []revocation
	victims    []int
	live       []int // per-market live servers a storm picks from
	mktBuf     []*cluster.Server
	stoppedBuf []*cluster.Server
	dead       []deadRouting
	// billed is the hourly-billing ledger: billed[id] is the time server id
	// is paid through, -Inf before its first charge. Server IDs are dense
	// from 0 in every run, so the slice grows with the run's launches.
	billed []float64
	// attain backs the last run's Result.Attainment.
	attain []chaos.AttainPoint
	// rng is the revocation sampler, re-seeded by every run.
	rng *rand.Rand
}

// NewScratch returns an empty Scratch; the buffers grow to the catalog's
// size on first use and are retained across runs.
func NewScratch() *Scratch { return &Scratch{} }

// growTo resizes s to length n, reallocating only when the capacity is
// insufficient. Contents are unspecified; callers reset what they read.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes the per-market and per-group buffers for a run and clears
// every piece of state that carries meaning across calls.
func (sc *Scratch) reset(markets, groups int) {
	sc.exposed = growTo(sc.exposed, markets)
	sc.prices = growTo(sc.prices, markets)
	sc.blacked = growTo(sc.blacked, markets)
	sc.revoked = growTo(sc.revoked, markets)
	sc.live = growTo(sc.live, markets)
	sc.groupShock = growTo(sc.groupShock, groups)
	sc.groupSet = growTo(sc.groupSet, groups)
	sc.revs = sc.revs[:0]
	sc.victims = sc.victims[:0]
	sc.mktBuf = sc.mktBuf[:0]
	sc.stoppedBuf = sc.stoppedBuf[:0]
	sc.dead = sc.dead[:0]
	sc.billed = sc.billed[:0]
}

// revocation is an in-flight within-interval event.
type revocation struct {
	market  int
	warnAt  float64 // hours
	handled bool
	// warnScale multiplies the warning period for this revocation (chaos
	// storms can shorten or zero it); natural revocations use 1.
	warnScale float64
	injected  bool
}

// deadRouting models a transiency-unaware balancer still sending a fraction
// of requests to terminated servers until health checks react.
type deadRouting struct {
	until    float64
	fraction float64
}

// Run executes the simulation over the whole workload trace.
func (s *Simulator) Run() (*Result, error) {
	cfg := s.Cfg.WithDefaults()
	if err := s.Cat.Validate(); err != nil {
		return nil, err
	}
	if s.Workload.Len() < 2 {
		return nil, fmt.Errorf("sim: workload too short")
	}
	stepHrs := s.Cat.StepHrs
	secPerHr := 3600.0

	catLen := s.Cat.Len()
	scr := s.Scratch
	if scr == nil {
		scr = NewScratch()
	}
	// Re-seeding resets a source completely: the stream is NewSource(Seed)'s.
	if scr.rng == nil {
		scr.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		scr.rng.Seed(cfg.Seed)
	}
	rng := scr.rng
	groups := 0
	for _, m := range s.Cat.Markets {
		if m.Group+1 > groups {
			groups = m.Group + 1
		}
	}
	scr.reset(catLen, groups)

	cl := cluster.New(cfg.StartDelaySec/secPerHr, cfg.WarmupSec/secPerHr)
	caps := make([]float64, catLen)
	for i, m := range s.Cat.Markets {
		caps[i] = m.Type.Capacity
	}
	if cfg.Sentinel {
		// Anchor (on-demand) markets get stop/restart semantics: surplus is
		// preserved as standby instead of terminated, deficits restart warm.
		preserve := make([]bool, s.Cat.Len())
		for i, m := range s.Cat.Markets {
			preserve[i] = !m.Transient
		}
		cl.Preserve = preserve
	}

	res := &Result{Policy: s.Policy.Name(), Actions: make(map[string]int)}
	var latWeighted, servedTotal, offeredTotal, violTotal float64
	dead := scr.dead
	var backlog float64 // queued (delayed) requests
	billed := scr.billed
	inAdmission := false

	n := s.Workload.Len()
	// The result arrays are the only per-round growth: preallocate them (and
	// one arena backing every interval's Counts) so the steady-state loop
	// appends without ever reallocating.
	res.Intervals = make([]IntervalMetrics, 0, n-1)
	if points := (n - 1) * cfg.SubSteps; cap(scr.attain) < points {
		scr.attain = make([]chaos.AttainPoint, 0, points)
	}
	res.Attainment = scr.attain[:0]
	countsArena := make([]int, (n-1)*catLen)
	// Chaos fault times are normalized fractions of the run: 0 is the start
	// of the first simulated interval, 1 its end.
	runStart := stepHrs
	runLen := float64(n-1) * stepHrs
	baseStartDelayHrs := cl.StartDelay
	progress := func(now float64) float64 {
		x := (now - runStart) / runLen
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	// advance ticks the cluster and journals the servers reaped as terminated
	// (in ID order, for determinism); capacity is read off the fleet.
	advance := func(now float64) {
		_, reaped := cl.Advance(now)
		for _, id := range reaped {
			cfg.Journal.Record(metrics.EvBackendTerminated, id, -1, "")
		}
	}
	// The hourly-billing scan is skipped while no server can owe an hour: the
	// fleet saw no mutation since the last scan (billMut) and now is before
	// the earliest time that scan left paid (billNext). Without a mutation no
	// server joined the billable set or re-based its LaunchedAt, so every
	// billable server was in that scan and is paid past now.
	billMut, billNext := cl.Mutations(), math.Inf(-1)
	latency := cluster.DefaultLatencyModel()
	var latMemo latencyMemo
	for t := 1; t < n; t++ {
		tStart := float64(t) * stepHrs
		tEnd := tStart + stepHrs
		lambda := s.Workload.At(t)

		// Policy observes interval t-1 and plans interval t.
		counts, err := s.Policy.Decide(t-1, s.Workload.At(t-1))
		if err != nil {
			return nil, fmt.Errorf("sim: policy %s at t=%d: %w", s.Policy.Name(), t, err)
		}
		if len(counts) != s.Cat.Len() {
			return nil, fmt.Errorf("sim: policy returned %d counts, want %d", len(counts), s.Cat.Len())
		}
		scaleAt := tStart
		if t == 1 {
			// Bootstrap: the initial fleet is brought up before the first
			// interval so the run does not start with an empty, booting
			// cluster (the paper's testbed likewise starts warmed).
			scaleAt = tStart - (cfg.StartDelaySec+cfg.WarmupSec+1)/secPerHr
		}
		started, stopped, restarted := cl.ScaleTo(counts, caps, scaleAt)
		res.Launches += started
		res.Stops += stopped
		res.Restarts += restarted
		if cfg.Sentinel {
			// Maintain the sentinel standby pool: hydrated, stopped (and
			// unbilled) servers in the cheapest on-demand market, ready for a
			// warm restart when a storm hits. The pool is topped back up every
			// planning round — restarts consume it — to sentinelShare of the
			// current demand (so a correlated storm can be absorbed with warm
			// capacity alone), with sentinelStandby as a count floor.
			od, odCost := -1, 0.0
			for i, m := range s.Cat.Markets {
				if m.Transient {
					continue
				}
				if c := m.PerRequestCostAt(t); od == -1 || c < odCost {
					od, odCost = i, c
				}
			}
			if od >= 0 {
				pool := 0.0
				stoppedN := 0
				scr.stoppedBuf = cl.AppendStopped(scr.stoppedBuf[:0])
				for _, sb := range scr.stoppedBuf {
					pool += sb.Capacity
					stoppedN++
				}
				target := sentinelShare * lambda
				// Every LaunchStopped adds exactly one stopped server, so the
				// pool size is tracked incrementally instead of re-materializing
				// the stopped list per iteration.
				for k := 0; (pool < target || stoppedN < sentinelStandby) && k < 256; k++ {
					sb := cl.LaunchStopped(od, caps[od], scaleAt)
					pool += sb.Capacity
					stoppedN++
				}
			}
		}

		// Exposure snapshot for the risk estimator: a market-interval is
		// "observed" when the market holds live servers at the moment
		// revocations are sampled — exactly the Bernoulli trial the
		// catalog's per-interval probability describes.
		var exposed []bool
		if cfg.Risk != nil {
			exposed = scr.exposed
			for i, m := range s.Cat.Markets {
				exposed[i] = m.Transient && cl.CountInMarket(i) > 0
			}
		}

		// Sample correlated revocations for this interval (Gaussian copula
		// over market groups). The shock/blackout state lives in per-market
		// and per-group scratch slices cleared each interval.
		revs := scr.revs[:0]
		clear(scr.groupSet)
		clear(scr.blacked)
		for i, m := range s.Cat.Markets {
			if !m.Transient {
				continue
			}
			if cl.CountInMarket(i) == 0 {
				continue
			}
			// Region-outage blackout: any server alive in a dark market is
			// force-revoked (the planner may keep buying there — it does not
			// see the fault — and every purchase dies). The branch sits
			// before any RNG draw so scenarios without blackouts keep a
			// bit-identical random stream; within a region all group-mates go
			// dark together (demand pools are AZ-local), so no group shock is
			// half-consumed.
			if ws, dark := cfg.Chaos.Blackout(progress(tStart), i); dark {
				revs = append(revs, revocation{
					market:    i,
					warnAt:    tStart + 0.2*stepHrs,
					warnScale: ws,
					injected:  true,
				})
				scr.blacked[i] = true
				res.Revocations++
				res.InjectedRevocations++
				continue
			}
			f := m.FailProbAt(t)
			if f <= 0 {
				continue
			}
			if !scr.groupSet[m.Group] {
				scr.groupShock[m.Group] = rng.NormFloat64()
				scr.groupSet[m.Group] = true
			}
			zg := scr.groupShock[m.Group]
			rho := cfg.GroupCorrelation
			z := rho*zg + math.Sqrt(1-rho*rho)*rng.NormFloat64()
			// Revoke when the market's latent demand shock falls in the
			// lower f-quantile.
			if normCDF(z) < f {
				revs = append(revs, revocation{
					market:    i,
					warnAt:    tStart + stepHrs*(0.2+0.6*rng.Float64()),
					warnScale: 1,
				})
				res.Revocations++
			}
		}

		// Injected revocation storms scheduled for this interval.
		for _, cr := range cfg.Chaos.Revocations(progress(tStart), progress(tEnd)) {
			when := runStart + cr.T*runLen
			for i, m := range s.Cat.Markets {
				scr.live[i] = 0
				if m.Transient {
					scr.live[i] = cl.CountInMarket(i)
				}
			}
			scr.victims = cr.Victims(scr.victims[:0], scr.live)
			for _, mkt := range scr.victims {
				if scr.blacked[mkt] {
					// The blackout branch above already force-revoked this
					// market; the outage-start storm must not double-fire.
					continue
				}
				revs = append(revs, revocation{
					market:    mkt,
					warnAt:    when,
					warnScale: cr.WarnScale,
					injected:  true,
				})
				res.Revocations++
				res.InjectedRevocations++
			}
		}
		scr.revs = revs // retain the grown buffer for the next interval

		// Sub-interval fluid simulation.
		sub := stepHrs / float64(cfg.SubSteps)
		var im IntervalMetrics
		im.T = t
		im.Lambda = lambda
		var capSum, imLatWeighted float64
		warningHrs := cfg.WarningSec / secPerHr
		for k := 0; k < cfg.SubSteps; k++ {
			now := tStart + (float64(k)+0.5)*sub
			x := progress(now)
			// Replacement-start jitter: every launch from here on (scale-ups,
			// reactive reprovisions) boots slower while the fault is active.
			cl.StartDelay = baseStartDelayHrs * cfg.Chaos.StartDelayFactor(x)
			// Enforce the provider's maximum instance lifetime (Google
			// preemptible semantics): age out transient servers gracefully.
			// The transiency-aware controller starts a same-market
			// replacement at the warning so lifetime expiry never leaves a
			// capacity hole (§7: the transiency-aware balancer handles the
			// 24 h termination).
			if cfg.MaxLifetimeHrs > 0 {
				for _, srv := range cl.Servers() {
					if srv.State() == cluster.StateDraining || srv.State() == cluster.StateTerminated ||
						srv.State() == cluster.StateStopped {
						continue
					}
					if !s.Cat.Markets[srv.Market].Transient {
						continue
					}
					if now-srv.LaunchedAt() >= cfg.MaxLifetimeHrs {
						mkt := srv.Market
						// Lifetime expiry is a revocation like any other: the
						// journal, the risk estimator and the active chaos
						// warning scale all see it (previously it was invisible
						// to resilience scoring and fired with a full warning
						// even while warnings were degraded).
						effWarnHrs := warningHrs * cfg.Chaos.WarnScale(x)
						cl.RevokeWarning(srv.ID, now, effWarnHrs)
						cfg.Journal.Record(metrics.EvWarning, srv.ID, mkt, "lifetime")
						if cfg.Risk != nil {
							cfg.Risk.ObserveRevocation(mkt, false)
						}
						if cfg.TransiencyAware {
							repl := cl.Launch(mkt, caps[mkt], now)
							cfg.Journal.Record(metrics.EvReplacementStarted, repl.ID, mkt, "lifetime")
							res.Launches++
						}
					}
				}
			}
			// Fire revocation warnings.
			for ri := range revs {
				rv := &revs[ri]
				if rv.handled || now < rv.warnAt {
					continue
				}
				rv.handled = true
				// Warning-delay/loss faults scale the warning the control
				// plane actually receives; storm-specific scales compound.
				scale := rv.warnScale * cfg.Chaos.WarnScale(x)
				effWarnHrs := warningHrs * scale
				detail := "natural"
				if rv.injected {
					detail = "injected"
				}
				if cfg.Risk != nil {
					cfg.Risk.ObserveRevocation(rv.market, rv.injected)
				}
				lost := 0.0
				scr.mktBuf = cl.AppendServersInMarket(scr.mktBuf[:0], rv.market)
				for _, srv := range scr.mktBuf {
					lost += srv.EffectiveCapacity(now)
					cl.RevokeWarning(srv.ID, rv.warnAt, effWarnHrs)
					cfg.Journal.Record(metrics.EvWarning, srv.ID, rv.market, detail)
				}
				im.Revoked = append(im.Revoked, rv.market)
				if cfg.TransiencyAware {
					// The LB receives the warning: decide per §6.1. Slowdown
					// faults shrink the capacity the decision sees, and
					// start-delay jitter stretches the boot time it must beat.
					remaining := cl.TotalCapacity(now) * cfg.Chaos.CapacityFactor(x) // draining still serves
					post := remaining - lost
					util := math.Inf(1) // no survivor absorbs anything
					if post > 0 {
						util = lambda / post
					}
					effStartDelay := cfg.StartDelaySec * cfg.Chaos.StartDelayFactor(x)
					action := lb.DecideRevocation(util, cfg.HighUtil, effStartDelay, cfg.WarningSec*scale)
					if forced, ok := cfg.Chaos.ForcedAction(x); ok {
						action = forced
					}
					res.Actions[action.String()]++
					cfg.Journal.Record(metrics.EvDrainStart, -1, rv.market, action.String())
					// Sentinel path first: restart stopped anchor capacity
					// (boot delay only — the caches are warm) before
					// recreating anything cold. This is the restart-vs-
					// recreate gap the standby pool exists for. Restarts fire
					// on EVERY revocation — the LB's decision governs traffic
					// placement, the sentinel governs capacity restoration —
					// and keep going past the lost amount until the projected
					// fleet covers demand again, so a mid-interval storm does
					// not leave the survivors pinned above the latency knee
					// until the next planning round.
					if cfg.Sentinel {
						// Projected steady-state fleet once the dust settles:
						// draining victims and parked surplus evaporate, booting
						// servers (including the just-revoked market's — a storm
						// can hit servers that never finished booting, whose
						// instantaneous EffectiveCapacity is 0 but whose loss is
						// real) reach nameplate. Restart standbys until the
						// projection covers demand again.
						projected := 0.0
						for _, srv := range cl.Servers() {
							if st := srv.State(); st == cluster.StateStarting || st == cluster.StateRunning {
								projected += srv.Capacity
							}
						}
						scr.stoppedBuf = cl.AppendStopped(scr.stoppedBuf[:0])
						for _, sb := range scr.stoppedBuf {
							if projected >= lambda {
								break
							}
							if rs := cl.Restart(sb.ID, rv.warnAt); rs != nil {
								lost -= rs.Capacity
								projected += rs.Capacity
								res.Restarts++
								cfg.Journal.Record(metrics.EvReplacementStarted, rs.ID, rs.Market, "sentinel-restart")
							}
						}
					}
					if action != lb.ActionRedistribute {
						// Reprovision: replace remaining lost capacity in the
						// cheapest surviving transient market (reactive,
						// cold — start delay plus cache warm-up).
						repl := s.cheapestAlive(t, x, revs, scr)
						if lost > 0 && repl >= 0 {
							need := int(math.Ceil(lost / caps[repl]))
							for r := 0; r < need; r++ {
								srv := cl.Launch(repl, caps[repl], rv.warnAt)
								cfg.Journal.Record(metrics.EvReplacementStarted, srv.ID, repl, "")
								res.Launches++
							}
						}
					}
				} else {
					// Vanilla balancer: keeps routing to the dead servers
					// after termination until health checks notice.
					total := cl.TotalCapacity(now)
					frac := 0.0
					if total > 0 {
						frac = lost / total
					}
					dead = append(dead, deadRouting{
						until:    rv.warnAt + effWarnHrs + detectionDelaySec/secPerHr,
						fraction: frac,
					})
				}
			}
			// Hourly billing accrues the moment an instance-hour starts:
			// a server alive now owes the full hour even if it terminates
			// minutes later (the churn cost of abandoned hours). Stopped
			// servers are deallocated compute — they accrue nothing until
			// restarted. Restart re-bases LaunchedAt, and a restart after the
			// paid hour lapsed lands past the ledger's time, so billing
			// resumes from the restart; one inside the paid hour is covered.
			if mut := cl.Mutations(); !cfg.PerSecondBilling && (mut != billMut || now >= billNext) {
				billMut, billNext = mut, math.Inf(1)
				for _, srv := range cl.Servers() {
					if srv.State() == cluster.StateTerminated || srv.State() == cluster.StateStopped {
						continue
					}
					for len(billed) <= srv.ID {
						billed = append(billed, math.Inf(-1))
					}
					until := billed[srv.ID]
					if until < srv.LaunchedAt() {
						until = srv.LaunchedAt()
					}
					for until <= now {
						// Each hour is charged at the price in effect when the
						// hour STARTED, not when the charge is booked — an hour
						// opened in interval t−1 must not be re-priced at
						// interval t's rate across the boundary.
						im.Cost += s.Cat.Markets[srv.Market].PriceAt(int(until / stepHrs))
						until += 1.0
					}
					billed[srv.ID] = until
					if until < billNext {
						billNext = until
					}
				}
			}
			advance(now)
			// Slowdown/flap faults degrade effective serving capacity.
			capNow := cl.TotalCapacity(now) * cfg.Chaos.CapacityFactor(x)
			capSum += capNow

			offered := lambda
			// Dead-routing drops (vanilla only): that traffic share never
			// reaches a live server once the revoked machines terminate.
			// Expired entries are pruned first — the slice is scanned every
			// sub-step, so an append-only slice would grow memory and
			// per-step cost without bound on long transiency-unaware runs.
			dead = pruneDead(dead, now)
			deadFrac := 0.0
			for _, d := range dead {
				if now >= d.until-detectionDelaySec/secPerHr && now < d.until {
					deadFrac += d.fraction
				}
			}
			if deadFrac > 0.9 {
				deadFrac = 0.9
			}
			deadDrop := offered * deadFrac
			offered -= deadDrop

			served, dropped, lat := latMemo.interval(latency, offered, capNow)
			dt := sub * secPerHr // seconds in this sub-step

			// Track the admission-control regime: time spent with offered
			// load beyond serving capacity, and transitions into/out of it.
			if offered > capNow {
				res.OverloadSecs += dt
				if !inAdmission {
					inAdmission = true
					res.AdmissionEvents++
					cfg.Journal.Record(metrics.EvAdmissionOn, -1, -1, "")
				}
			} else if inAdmission {
				inAdmission = false
				cfg.Journal.Record(metrics.EvAdmissionOff, -1, -1, "")
			}

			// Admission-control queueing: overload waits in a bounded FIFO
			// instead of dropping, and is served late from spare capacity.
			var servedLate float64
			if cfg.QueueDeadlineSec > 0 {
				// Spare service rate beyond current arrivals drains the
				// backlog (in requests).
				spare := capNow - served
				if spare > 0 && backlog > 0 {
					drain := math.Min(backlog, spare*dt)
					backlog -= drain
					servedLate = drain
				}
				// Queue this sub-step's overload up to the deadline bound.
				maxBacklog := capNow * cfg.QueueDeadlineSec
				queued := math.Min(dropped*dt, math.Max(0, maxBacklog-backlog))
				backlog += queued
				dropped -= queued / dt
			}
			dropped += deadDrop
			im.Served += served*dt + servedLate
			im.Dropped += dropped * dt
			latWeighted += lat*served*dt + sloLatencySec*2*servedLate
			imLatWeighted += lat*served*dt + sloLatencySec*2*servedLate
			viol := dropped*dt + servedLate // delayed requests violate the SLO
			if lat > sloLatencySec {
				viol += served * dt
			}
			im.Violations += viol
			violTotal += viol
			// Instantaneous SLO attainment at sub-step resolution — the
			// series recovery-time scoring runs over.
			attain := 100.0
			if lambda > 0 {
				attain = 100 * (1 - viol/(lambda*dt))
				if attain < 0 {
					attain = 0
				} else if attain > 100 {
					attain = 100
				}
			}
			res.Attainment = append(res.Attainment, chaos.AttainPoint{TimeHrs: now, Pct: attain})
		}
		// Per-second billing charges each live server pro-rata at interval
		// end; hourly billing accrued inside the sub-step loop above.
		if cfg.PerSecondBilling {
			for _, srv := range cl.Servers() {
				if srv.State() == cluster.StateStopped {
					continue
				}
				price := s.Cat.Markets[srv.Market].PriceAt(t)
				im.Cost += price * stepHrs
			}
		}
		res.TotalCost += im.Cost
		im.Capacity = capSum / float64(cfg.SubSteps)
		offered := lambda * stepHrs * secPerHr
		if offered > 0 {
			im.Violations /= offered
		}
		offeredTotal += offered
		servedTotal += im.Served
		res.Served += im.Served
		res.Dropped += im.Dropped
		im.Counts = countsArena[(t-1)*catLen : t*catLen : t*catLen]
		cl.CountByMarketInto(im.Counts)
		if im.Served > 0 {
			im.Latency = imLatWeighted / im.Served
		}
		res.Intervals = append(res.Intervals, im)

		// Close out the estimator's interval: decay, fold in this interval's
		// revocations and exposure, run changepoint detection on the current
		// prices, and publish a fresh overlay for the next planning round.
		if cfg.Risk != nil {
			prices := scr.prices
			for i, m := range s.Cat.Markets {
				prices[i] = m.PriceAt(t)
			}
			// The estimator reads both snapshots synchronously and retains
			// neither, so the scratch slices are safe to hand over.
			cfg.Risk.ObserveInterval(t, exposed, prices)
		}

		// Advance to the interval boundary.
		advance(tEnd)
	}
	scr.dead = dead[:0] // retain the grown buffers across runs
	scr.billed = billed
	scr.attain = res.Attainment
	if servedTotal > 0 {
		res.MeanLatency = latWeighted / servedTotal
	}
	if offeredTotal > 0 {
		res.ViolationPct = 100 * violTotal / offeredTotal
	}
	return res, nil
}

// cheapestAlive returns the cheapest transient market not currently being
// revoked or blacked out (x is the run progress, for the blackout query),
// or -1.
func (s *Simulator) cheapestAlive(t int, x float64, revs []revocation, scr *Scratch) int {
	revoked := scr.revoked
	clear(revoked)
	for i := range revs {
		revoked[revs[i].market] = true
	}
	best, bestCost := -1, 0.0
	for i, m := range s.Cat.Markets {
		if !m.Transient || revoked[i] {
			continue
		}
		if _, dark := s.Cfg.Chaos.Blackout(x, i); dark {
			continue
		}
		c := m.PerRequestCostAt(t)
		if best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best == -1 {
		// Fall back to any on-demand market outside a blackout.
		for i, m := range s.Cat.Markets {
			if m.Transient {
				continue
			}
			if _, dark := s.Cfg.Chaos.Blackout(x, i); dark {
				continue
			}
			return i
		}
	}
	return best
}

// latencyMemo remembers the last LatencyModel.Interval evaluation. Interval
// is a pure function, so while the offered load and the capacity keep their
// bits — a quiet stretch of sub-steps — its answer is reused exactly.
type latencyMemo struct {
	ok                   bool
	offered, capacity    uint64 // math.Float64bits of the arguments
	served, dropped, lat float64
}

func (lm *latencyMemo) interval(m cluster.LatencyModel, offered, capacity float64) (served, dropped, lat float64) {
	ob, cb := math.Float64bits(offered), math.Float64bits(capacity)
	if !lm.ok || ob != lm.offered || cb != lm.capacity {
		lm.served, lm.dropped, lm.lat = m.Interval(offered, capacity)
		lm.ok, lm.offered, lm.capacity = true, ob, cb
	}
	return lm.served, lm.dropped, lm.lat
}

// pruneDead drops dead-routing entries whose detection window has fully
// elapsed (now >= until): they can never contribute to deadFrac again. The
// slice is compacted in place.
func pruneDead(dead []deadRouting, now float64) []deadRouting {
	if len(dead) == 0 {
		return dead
	}
	kept := dead[:0]
	for _, d := range dead {
		if now < d.until {
			kept = append(kept, d)
		}
	}
	return kept
}

// normCDF is the standard normal CDF.
func normCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}
