package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	spotweb "repro"
	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/lb"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/testbed"
)

// Serving workloads: open-loop requests into testbed.Cluster.ServeHTTP (the
// load balancer's front end, in process) with real loopback sockets from the
// balancer to the backends. serve_steady holds a fixed fleet with nothing
// else going on; serve_revoke steps the rate, plays a compiled chaos timeline
// of revocations and re-plans the fleet every interval with a real
// spotweb.Controller.
const (
	serveInterval    = 2 * time.Second        // planning interval
	serveSLO         = 100 * time.Millisecond // from the due time
	serveWarning     = 300 * time.Millisecond // revocation warning ≥ boot delay
	serveBoot        = 150 * time.Millisecond
	serveBaseService = 2 * time.Millisecond
	serveMarkets     = 3
	servePerMarket   = 2
	serveSessions    = 64
	serveSessionless = 0.2
	serveSteadyRate  = 200.0
	// serveCapScale sizes serve_revoke's catalog capacities (35/70/56 req/s)
	// so the planned fleet stays between 4 and 12 backends over 120–280 req/s.
	serveCapScale = 0.35
)

type serveKind int

const (
	serveSteady serveKind = iota
	serveRevoke
)

// sink is the minimal ResponseWriter a sender hands to ServeHTTP.
type sink struct{ code int }

func (s *sink) Header() http.Header { return http.Header{} }
func (s *sink) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return len(b), nil
}
func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

// serveEnv is a booted cluster plus the generated request schedule.
type serveEnv struct {
	kind    serveKind
	dur     time.Duration
	cat     *market.Catalog
	caps    []float64
	rates   []float64 // scheduled req/s per planning interval
	due     []time.Duration
	reqs    []*http.Request // one per session, last is sessionless
	reqOf   []int           // schedule index → request index
	sticky  int             // scheduled requests that carry a session
	journal *metrics.Journal
	cluster *testbed.Cluster
	ctrl    *spotweb.Controller
	drv     *runner.FaultDriver
}

// revokeScenario is the benchmark's own fault plan: eight single-market
// storms with the full warning, spread over the run with a seeded jitter, and
// one slowdown window.
func revokeScenario(rng *rand.Rand) *chaos.Scenario {
	sc := &chaos.Scenario{Name: "bench-revoke", Description: "eight Count=1 storms and one slowdown"}
	for k := 1; k <= 8; k++ {
		sc.Faults = append(sc.Faults, chaos.FaultSpec{
			Kind: chaos.KindStorm, Start: 0.1*float64(k) + 0.02*(rng.Float64()-0.5), Count: 1,
		})
	}
	sc.Faults = append(sc.Faults, chaos.FaultSpec{
		Kind: chaos.KindSlowdown, Start: 0.45, Duration: 0.1, Severity: 0.7,
	})
	return sc
}

// stepRate is serve_revoke's scheduled rate for interval k of n: a ramp from
// 120 up to 280 at mid-run and back down to 160, in 20 req/s steps.
func stepRate(k, n int) float64 {
	x := float64(k) / float64(n-1)
	r := 120 + (280-120)*x/0.5
	if x > 0.5 {
		r = 280 - (280-160)*(x-0.5)/0.5
	}
	return 20 * float64(int(r/20+0.5))
}

// newServeEnv generates the inputs from the seed, boots the cluster and
// waits until the initial fleet is in rotation: the set-up before the first
// request can be served.
func newServeEnv(kind serveKind, seed int64, dur time.Duration, reg *metrics.Registry) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	// Whole planning intervals, at least two (a rate ramp needs both ends).
	intervals := max(2, int(dur/serveInterval))
	dur = time.Duration(intervals) * serveInterval
	e := &serveEnv{kind: kind, dur: dur, journal: metrics.NewJournal(8192)}
	e.cat = market.TestbedCatalog(universeSeed, intervals+8)
	e.caps = make([]float64, serveMarkets)
	for k := 0; k < intervals; k++ {
		if kind == serveRevoke {
			e.rates = append(e.rates, stepRate(k, intervals))
		} else {
			e.rates = append(e.rates, serveSteadyRate)
		}
	}
	for i, m := range e.cat.Markets {
		if kind == serveRevoke {
			m.Type.Capacity *= serveCapScale
		} else {
			m.Type.Capacity = 200
		}
		e.caps[i] = m.Type.Capacity
	}

	// Request schedule: evenly spaced inside each interval at its rate.
	for k, r := range e.rates {
		n := int(r * serveInterval.Seconds())
		for i := 0; i < n; i++ {
			e.due = append(e.due, time.Duration(k)*serveInterval+
				time.Duration(float64(i)/float64(n)*float64(serveInterval)))
		}
	}
	for s := 0; s <= serveSessions; s++ {
		req, err := http.NewRequest(http.MethodGet, "/", nil)
		if err != nil {
			return nil, err
		}
		if s < serveSessions {
			req.Header.Set("X-Session", fmt.Sprintf("s%d-%d", seed, s))
		}
		e.reqs = append(e.reqs, req)
	}
	e.reqOf = make([]int, len(e.due))
	for i := range e.reqOf {
		if rng.Float64() < serveSessionless {
			e.reqOf[i] = serveSessions
		} else {
			e.reqOf[i] = rng.Intn(serveSessions)
			e.sticky++
		}
	}

	ccfg := testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			BaseServiceTime: serveBaseService, StartDelay: serveBoot, WarmupDur: 100 * time.Millisecond,
		},
		Warning: serveWarning, Journal: e.journal, Metrics: reg,
	}
	if kind == serveRevoke {
		in, err := chaos.Compile(revokeScenario(rng), seed, serveMarkets)
		if err != nil {
			return nil, err
		}
		var mean float64
		for _, r := range e.rates {
			mean += r / float64(len(e.rates))
		}
		e.drv = runner.NewFaultDriver(in, dur, serveWarning, mean)
		ccfg.ActionOverride = e.drv.Hook()
		ctrl, err := spotweb.NewController(spotweb.ControllerOptions{
			Catalog:   e.cat,
			Optimizer: portfolio.Config{AMaxPerMarket: 0.4},
		})
		if err != nil {
			return nil, err
		}
		e.ctrl = ctrl
	}
	e.cluster = testbed.NewCluster(ccfg)
	for m := 0; m < serveMarkets; m++ {
		for k := 0; k < servePerMarket; k++ {
			e.cluster.AddBackendForMarket(m, e.caps[m])
		}
	}
	want := int64(serveMarkets * servePerMarket)
	for deadline := time.Now().Add(5 * time.Second); e.journal.Counts()[metrics.EvBackendUp] < want; {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("initial fleet did not boot")
		}
		time.Sleep(time.Millisecond)
	}
	return e, nil
}

func (e *serveEnv) close() { e.cluster.Close() }

// serveRun is what one measured segment produced.
type serveRun struct {
	samples  []reqSample
	cost     float64
	stepMS   timing // Controller.Step per interval
	scaleMS  timing // Cluster.ScaleTo per interval
	started  int
	stopped  int
	cpuS     float64
	fleets   [][]int // planned backends per market, one row per interval
	replanEr error
}

// run plays the schedule against the cluster; for serve_revoke it also plays
// the fault timeline and re-plans the fleet at every interval boundary. It
// returns after the last reply and after every drain in flight has finished.
func (e *serveEnv) run(tr *tracer) *serveRun {
	out := &serveRun{}
	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	start := time.Now()
	counts := make([]int, serveMarkets)
	for m := range counts {
		counts[m] = servePerMarket
	}
	fleetCost := func(k int) {
		out.fleets = append(out.fleets, append([]int(nil), counts...))
		for m, n := range counts {
			out.cost += float64(n) * e.cat.Markets[m].PriceAt(k) * e.cat.StepHrs
		}
	}
	if e.kind == serveRevoke {
		bg.Add(2)
		go func() { defer bg.Done(); e.drv.Run(ctx, e.cluster) }()
		go func() {
			defer bg.Done()
			for k := range e.rates {
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Until(start.Add(time.Duration(k) * serveInterval))):
				}
				root := tr.begin("control.interval", -1, int64(k))
				id := tr.begin("spotweb.Controller.Step", root, int64(k))
				t0 := time.Now()
				dec, err := e.ctrl.Step(k, e.rates[k])
				out.stepMS = append(out.stepMS, float64(time.Since(t0))/1e6)
				tr.end(id)
				if err != nil {
					out.replanEr = err
					tr.end(root)
					return
				}
				copy(counts, dec.Counts)
				id = tr.begin("testbed.Cluster.ScaleTo", root, int64(k))
				t0 = time.Now()
				st, sp := e.cluster.ScaleTo(dec.Counts, e.caps)
				out.scaleMS = append(out.scaleMS, float64(time.Since(t0))/1e6)
				tr.end(id)
				tr.end(root)
				out.started, out.stopped = out.started+st, out.stopped+sp
				fleetCost(k)
			}
		}()
	} else {
		for k := range e.rates {
			fleetCost(k)
		}
	}
	c0 := cpuSeconds()
	out.samples = openLoop(start, e.due, senders(), func(i int) bool {
		w := &sink{}
		id := tr.begin("testbed.Cluster.ServeHTTP", -1, int64(i))
		e.cluster.ServeHTTP(w, e.reqs[e.reqOf[i]])
		tr.end(id)
		return w.code == http.StatusOK || w.code == 0
	})
	out.cpuS = cpuSeconds() - c0
	cancel()
	bg.Wait()
	// Let revocations and scale-downs in flight reach termination, so the
	// journal ledger can close.
	time.Sleep(serveWarning + 100*time.Millisecond)
	return out
}

// endToEnd fills the user-visible metrics and applies the output checks.
func (e *serveEnv) endToEnd(r *serveRun, rep *report) {
	var fromDue, late timing
	ok, slo := 0, 0
	for _, s := range r.samples {
		late = append(late, s.lateMS())
		if !s.ok {
			continue
		}
		ok++
		fromDue = append(fromDue, s.fromDueMS())
		if s.done-s.due <= serveSLO {
			slo++
		}
	}
	n := len(r.samples)
	rep.Attempted += n
	rep.Failed += n - ok
	if n-ok > 0 {
		rep.failf("%d of %d requests did not return 200", n-ok, n)
	}
	if r.replanEr != nil {
		rep.failf("Controller.Step: %v", r.replanEr)
	}
	rep.setN("op_p50_ms", fromDue.pct(50), len(fromDue))
	rep.setN("op_p90_ms", fromDue.pct(90), len(fromDue))
	rep.noteTop("request from due time", fromDue)
	rep.setN("ok_share", float64(slo)/float64(n), n)
	if n > 0 {
		// Over the time the run actually took, first due time to last reply.
		rep.set("ops_per_s", float64(ok)/r.samples[n-1].done.Seconds())
	}
	rep.set("cost_usd", r.cost)
	// What must repeat exactly at a seed: the request schedule with its
	// session mix, and the fleet the controller planned per interval.
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(e.due, e.reqOf, r.fleets))))
	rep.setN("loadgen.late_p50_ms", late.pct(50), n)
	rep.setN("loadgen.late_p99_ms", late.pct(99), n)
	if late.pct(99) > fromDue.pct(90) {
		rep.notef("unresolved: the generator ran late (late_p99 %.2f ms > op_p90 %.2f ms)", late.pct(99), fromDue.pct(90))
	}
	e.checkLedger(rep)
}

// checkLedger closes the journal's books: every warned backend terminated as
// revoked, every drain that started completed, and a steady run saw no
// lifecycle event at all.
func (e *serveEnv) checkLedger(rep *report) {
	counts := e.journal.Counts()
	revoked := int64(0)
	for _, ev := range e.journal.Events() {
		if ev.Type == metrics.EvBackendTerminated && ev.Detail == "revoked" {
			revoked++
		}
	}
	if w := counts[metrics.EvWarning]; w != revoked {
		rep.failf("journal: %d revocation warnings but %d backends terminated as revoked", w, revoked)
	}
	if s, c := counts[metrics.EvDrainStart], counts[metrics.EvDrainComplete]; s != c {
		rep.failf("journal: %d drains started but %d completed", s, c)
	}
	if e.kind == serveSteady {
		for _, typ := range []string{metrics.EvWarning, metrics.EvDrainStart, metrics.EvScaleDown, metrics.EvAdmissionOn} {
			if counts[typ] != 0 {
				rep.failf("journal: steady run recorded %d %s events", counts[typ], typ)
			}
		}
	} else if counts[metrics.EvWarning] == 0 {
		rep.failf("journal: the revocation run delivered no warning")
	}
}

func runServe(kind serveKind, o runOpts, rep *report) error {
	if o.trace {
		return runServeTraced(kind, o, rep)
	}
	env, setups, err := repeatSetup(
		func() (*serveEnv, error) { return newServeEnv(kind, o.seed, o.window(), nil) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	rep.setN("setup_s", setups.median(), len(setups))
	rss := startRSS()
	r := env.run(nil)
	rss.record(rep)
	env.endToEnd(r, rep)
	rep.set("testbed.cpu_us_per_req", r.cpuS/float64(len(r.samples))*1e6)
	return nil
}

// --- traced run -----------------------------------------------------------

func runServeTraced(kind serveKind, o runOpts, rep *report) error {
	// Untraced reference segment: same inputs, no registry, no spans.
	refEnv, err := newServeEnv(kind, o.seed, o.refWindow(), nil)
	if err != nil {
		return err
	}
	refRun := refEnv.run(nil)
	refEnv.close()
	ref := newReport(o)
	refEnv.endToEnd(refRun, ref)

	reg := metrics.NewRegistry()
	env, err := newServeEnv(kind, o.seed, o.window()-o.refWindow(), reg)
	if err != nil {
		return err
	}
	defer env.close()
	tr := newTracer()
	r := env.run(tr)
	env.endToEnd(r, rep)
	n := float64(len(r.samples))

	var service timing
	for _, s := range r.samples {
		service = append(service, s.serviceMS())
	}
	rep.setN("testbed.frontend_p50_ms", service.pct(50), len(service))
	rep.setN("testbed.frontend_p99_ms", service.pct(99), len(service))
	rep.setN("testbed.frontend_p999_ms", service.pct(99.9), len(service))
	rep.set("testbed.frontend_max_ms", service.max())
	rep.set("testbed.cpu_us_per_req", r.cpuS/n*1e6)
	rep.setN("harness.traced_op_p50_ms", rep.Values["op_p50_ms"], len(r.samples))
	if p := ref.Values["op_p50_ms"]; p > 0 {
		rep.set("metrics.trace_overhead_pct", 100*(rep.Values["op_p50_ms"]/p-1))
	}

	prom := scrape(reg)
	hop, hops := promHistQuantile(prom, "spotweb_backend_request_seconds", 0.5)
	rep.setN("testbed.backend_hop_p50_ms", hop*1e3, int(hops))
	// The histogram's buckets are 6 % wide, coarser than the balancer's share
	// of a request, so the overhead is taken from exact sums: front-end time
	// minus backend-hop time, per front-end request.
	hopSumMS := promSum(prom, "spotweb_backend_request_seconds_sum", nil) * 1e3
	rep.set("lb.overhead_mean_us", (service.sum()-hopSumMS)/n*1e3)
	if env.sticky > 0 {
		rep.set("lb.sticky_hit_share", promSum(prom, "spotweb_lb_sticky_hits_total", nil)/float64(env.sticky))
	}
	front := promSum(prom, "spotweb_lb_requests_total", nil)
	if front > 0 {
		rep.set("testbed.redispatch_share", (promSum(prom, "spotweb_backend_requests_total", nil)-front)/front)
	}
	shed := promSum(prom, "spotweb_backend_shed_total", nil)
	unrouted := promSum(prom, "spotweb_lb_unrouted_total", nil)
	rep.set("testbed.shed_total", shed)
	rep.set("testbed.unrouted_total", unrouted)
	if kind == serveSteady && (shed != 0 || unrouted != 0) {
		rep.failf("steady run shed %v and left %v requests unrouted", shed, unrouted)
	}

	env.journalMetrics(rep)
	if len(r.scaleMS) > 0 {
		rep.setN("testbed.scale_to_p50_ms", r.scaleMS.median(), len(r.scaleMS))
		rep.set("testbed.scale_started", float64(r.started))
		rep.set("testbed.scale_stopped", float64(r.stopped))
		rep.setN("portfolio.replan_step_p50_ms", r.stepMS.median(), len(r.stepMS))
	}
	routeLedger(env, rep)

	return writeSpans(o.tracePath(), tr.closed())
}

// journalMetrics reads the revocation lifecycle off the event journal: exact
// counts, the action chosen per warned backend, and per episode the time
// from the warning to the drain's end and to the replacement's rotation-join.
func (e *serveEnv) journalMetrics(rep *report) {
	evs := e.journal.Events()
	warnedAt := map[int]time.Time{}
	lastWarn := map[int]time.Time{} // market → latest warning
	replWarn := map[int]time.Time{} // replacement backend → its episode's warning
	var toDrained, toReplUp timing
	actions := map[string]int{}
	migrated := 0
	for _, ev := range evs {
		switch ev.Type {
		case metrics.EvWarning:
			warnedAt[ev.Backend] = ev.At
			lastWarn[ev.Market] = ev.At
		case metrics.EvDrainStart:
			if _, ok := warnedAt[ev.Backend]; ok {
				actions[ev.Detail]++
			}
		case metrics.EvSessionsMigrated:
			if n, err := strconv.Atoi(strings.TrimPrefix(ev.Detail, "n=")); err == nil {
				migrated += n
			}
		case metrics.EvDrainComplete:
			if at, ok := warnedAt[ev.Backend]; ok {
				toDrained = append(toDrained, float64(ev.At.Sub(at))/1e6)
			}
		case metrics.EvReplacementStarted:
			replWarn[ev.Backend] = lastWarn[ev.Market]
		case metrics.EvReplacementUp:
			if at, ok := replWarn[ev.Backend]; ok {
				toReplUp = append(toReplUp, float64(ev.At.Sub(at))/1e6)
			}
		}
	}
	rep.set("lb.warnings", float64(len(warnedAt)))
	rep.set("lb.sessions_migrated", float64(migrated))
	rep.set("lb.action_redistribute", float64(actions[lb.ActionRedistribute.String()]))
	rep.set("lb.action_reprovision", float64(actions[lb.ActionReprovision.String()]))
	rep.set("lb.action_admission", float64(actions[lb.ActionAdmissionControl.String()]))
	if len(toDrained) > 0 {
		rep.setN("testbed.warn_to_drained_p50_ms", toDrained.median(), len(toDrained))
	}
	if len(toReplUp) > 0 {
		rep.setN("testbed.warn_to_replacement_up_p50_ms", toReplUp.median(), len(toReplUp))
	}
}

// routeLedger times Balancer.Route alone, on a standalone balancer carrying
// the workload's final weights and its sessions: the routing decision's own
// cost, which the millisecond-scale request metrics cannot resolve.
func routeLedger(e *serveEnv, rep *report) {
	b := lb.NewBalancer()
	weights := map[int]float64{}
	ids := make([]int, 0)
	for id, mkt := range e.cluster.Snapshot() {
		weights[id] = e.caps[mkt]
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		return
	}
	b.UpdatePortfolio(weights)
	sessions := make([]string, len(e.reqs))
	for i, r := range e.reqs {
		sessions[i] = r.Header.Get("X-Session")
	}
	const ops = 2_000_000
	for i := 0; i < 10_000; i++ { // bind the sessions, warm the table
		b.Route(sessions[e.reqOf[i%len(e.reqOf)]])
	}
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		b.Route(sessions[e.reqOf[i%len(e.reqOf)]])
	}
	dt := time.Since(t0)
	rep.setN("lb.route_ns_per_op", float64(dt)/ops, ops)
	rep.set("lb.route_allocs_per_op", float64(mallocs()-m0)/ops)
}
