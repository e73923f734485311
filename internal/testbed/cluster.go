package testbed

import (
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/metrics"
)

// ClusterConfig configures the testbed web cluster.
type ClusterConfig struct {
	// Backend is the template for launched servers.
	Backend BackendConfig
	// Warning is the revocation warning period.
	Warning time.Duration
	// HighUtil is the utilization threshold of the revocation decision
	// (§6.1); 0 keeps the balancer's default (0.85).
	HighUtil float64
	// ActionOverride, when set, can force the balancer's revocation decision
	// (the chaos fault-injection hook); return ok = false to keep the normal
	// decision. It runs under the cluster's lock: it must not call back into
	// the Cluster.
	ActionOverride func() (lb.RevocationAction, bool)
	// Vanilla disables transiency awareness in the front-end balancer
	// (unmodified-HAProxy baseline): warnings are ignored and dead backends
	// are only removed after FailDetect consecutive request failures.
	Vanilla bool
	// FailDetect is the vanilla health-check failure threshold (default 20).
	FailDetect int
	// OnRequest, when set, observes every completed request (latency and
	// whether it was dropped) — the hook the monitoring collector attaches
	// to.
	OnRequest func(latency time.Duration, dropped bool)
	// Metrics, when set, instruments the cluster: front-end and per-backend
	// request counters, latency histograms, queue-depth/capacity gauges and
	// the SLO-attainment tracker. Nil disables instrumentation at
	// near-zero cost (one branch per request).
	Metrics *metrics.Registry
	// Journal, when set, records the fleet lifecycle (backend up, warning
	// received, drain, migration, replacement, admission control on/off,
	// termination).
	Journal *metrics.Journal
	// Risk, when set, is told of every revocation warning the control plane
	// delivers (cluster.Front.Revoke), under the cluster's lock, beside the
	// journal's record; closing its intervals is the caller's.
	Risk cluster.RiskObserver
	// SLOTarget is the latency SLO threshold fed to the attainment tracker
	// (default 500 ms; the paper holds p99 at sub-second scale).
	SLOTarget time.Duration
	// AdmitRPS > 0 installs token-bucket admission control on the routing
	// hot path at that request rate, with a bucket admitBurst deep. 0
	// disables admission control.
	AdmitRPS float64
}

// admitBurst is the depth of the admission-control token bucket.
const admitBurst = 64

// clusterMetrics bundles the front-end instrument handles. All fields are
// nil (and all operations no-ops) when metrics are disabled.
type clusterMetrics struct {
	requests *metrics.Counter
	failed   *metrics.Counter
	unrouted *metrics.Counter
	latency  *metrics.Histogram
	slo      *metrics.SLOTracker
}

// Cluster is the testbed web cluster: backends plus the front-end balancer.
// Its ServeHTTP is the load-balancer endpoint. The control plane is a
// cluster.Front clocked in seconds since epoch, serialized under mu and
// advanced by one timer armed for the fleet's next transition; every server
// it launches gets an HTTP backend.
type Cluster struct {
	cfg      ClusterConfig
	balancer *lb.Balancer
	client   *http.Client

	instrumented bool // OnRequest or Metrics present: time requests
	met          clusterMetrics
	slowdown     atomic.Uint64 // float64 bits; applied to new backends

	epoch   time.Time
	timer   *time.Timer   // fires at the fleet's next transition
	done    chan struct{} // closed by Close: ends the timer loop
	stopped chan struct{} // closed by the timer loop as it returns

	mu       sync.Mutex
	front    *cluster.Front
	fleet    *cluster.Cluster // the front's fleet
	backends map[int]*Backend // the fleet's live servers, by ID
	fails    map[int]int
}

// NewCluster starts an empty cluster with its load-balancer front end.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.FailDetect <= 0 {
		cfg.FailDetect = 20
	}
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = 500 * time.Millisecond
	}
	c := &Cluster{
		cfg:      cfg,
		balancer: lb.NewBalancer(),
		epoch:    time.Now(),
		timer:    time.NewTimer(math.MaxInt64),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
		fleet:    cluster.New(cfg.Backend.StartDelay.Seconds(), cfg.Backend.WarmupDur.Seconds()),
		backends: make(map[int]*Backend),
		fails:    make(map[int]int),
		client: &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 512,
				MaxConnsPerHost:     0,
			},
		},
	}
	c.balancer.Vanilla = cfg.Vanilla
	c.balancer.Journal = cfg.Journal
	if cfg.HighUtil > 0 {
		c.balancer.HighUtil = cfg.HighUtil
	}
	c.balancer.ActionOverride = cfg.ActionOverride
	if cfg.AdmitRPS > 0 {
		c.balancer.SetAdmission(lb.NewTokenBucket(cfg.AdmitRPS, admitBurst))
	}
	c.balancer.SetMetrics(cfg.Metrics)
	c.front = cluster.NewFront(c.fleet, c.balancer, cfg.Journal, cfg.Risk)
	c.instrumented = cfg.OnRequest != nil || cfg.Metrics != nil
	if r := cfg.Metrics; r != nil {
		c.met = clusterMetrics{
			requests: r.Counter("spotweb_lb_requests_total", "Requests handled by the front-end load balancer."),
			failed:   r.Counter("spotweb_lb_requests_failed_total", "Requests that returned a non-200 status."),
			unrouted: r.Counter("spotweb_lb_unrouted_total", "Requests with no routable backend (admission control / empty fleet)."),
			latency:  r.Histogram("spotweb_lb_request_seconds", "End-to-end request latency through the load balancer."),
			slo: r.SLO("spotweb_slo", "Latency SLO attainment.",
				metrics.NewSLOTracker(cfg.SLOTarget, time.Minute, 15)),
		}
		r.GaugeFunc("spotweb_backends_live", "Backends in rotation (ready or booting, not draining).",
			func() float64 { return float64(len(c.Snapshot())) })
		r.GaugeFunc("spotweb_backends_draining", "Backends pulled from rotation awaiting termination.",
			func() float64 {
				return c.sum(func(b *Backend) int64 {
					if b.node.State() == cluster.StateDraining {
						return 1
					}
					return 0
				})
			})
		r.GaugeFunc("spotweb_lb_queue_depth", "In-flight requests across all backends.",
			func() float64 { return c.sum(func(b *Backend) int64 { return b.inflight.Load() }) })
		r.GaugeFunc("spotweb_ready_capacity_req_per_sec", "Warm-adjusted capacity of ready backends.",
			c.TotalReadyCapacity)
		r.GaugeFunc("spotweb_sessions_live", "Sticky sessions currently bound.",
			func() float64 { return float64(c.balancer.SessionCount()) })
	}
	go c.run()
	return c
}

// run applies the fleet's transitions as they fall due, until Close.
func (c *Cluster) run() {
	defer close(c.stopped)
	for {
		select {
		case <-c.timer.C:
			c.update(func(float64) {})
		case <-c.done:
			return
		}
	}
}

// update applies mutate to the control plane at the current fleet time under
// c.mu, advances the plane to that time, re-arms the timer and returns the
// backends it attached. A reaped backend is shut down once c.mu is released,
// since a shutdown waits out its in-flight requests.
func (c *Cluster) update(mutate func(now float64)) (added []*Backend) {
	c.mu.Lock()
	now := time.Since(c.epoch).Seconds()
	mutate(now)
	_, reaped, launched := c.front.Advance(now)
	for _, node := range launched {
		added = append(added, c.attach(node))
	}
	gone := make([]*Backend, len(reaped))
	for i, id := range reaped {
		gone[i] = c.backends[id]
		delete(c.backends, id)
	}
	if next := c.fleet.Next(); !math.IsInf(next, 1) {
		c.timer.Reset(time.Until(c.epoch.Add(time.Duration(next * float64(time.Second)))))
	}
	c.mu.Unlock()
	for _, b := range gone {
		b.terminate()
	}
	return added
}

// sum adds f over the live backends (booting, in rotation or draining).
func (c *Cluster) sum(f func(*Backend) int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, b := range c.backends {
		n += f(b)
	}
	return float64(n)
}

// AddBackend launches a new server and registers it with the balancer using
// a weight proportional to its capacity. The backend enters rotation only
// once its simulated boot completes (a health-checked launch, as HAProxy
// would do): routing to a booting server would shed every request.
func (c *Cluster) AddBackend(capacity float64) *Backend {
	return c.AddBackendForMarket(-1, capacity)
}

// AddBackendForMarket launches a backend tagged with a catalog market index,
// enabling portfolio-driven scaling via ScaleTo.
func (c *Cluster) AddBackendForMarket(mkt int, capacity float64) *Backend {
	return c.update(func(now float64) { c.front.Launch(mkt, capacity, now) })[0]
}

// attach starts the HTTP backend of a launched server, under c.mu.
func (c *Cluster) attach(node *cluster.Server) *Backend {
	bcfg := c.cfg.Backend
	bcfg.Capacity = node.Capacity
	b := newBackend(node, c.epoch, bcfg)
	if bits := c.slowdown.Load(); bits != 0 {
		b.SetSlowdown(math.Float64frombits(bits))
	}
	c.backends[b.ID] = b
	if r := c.cfg.Metrics; r != nil {
		labels := []metrics.Label{metrics.L("backend", metrics.Itoa(b.ID)), metrics.L("market", metrics.Itoa(b.Market))}
		b.metReqs = r.Counter("spotweb_backend_requests_total", "Requests proxied to the backend.", labels...)
		b.metLat = r.Histogram("spotweb_backend_request_seconds", "Backend-observed request latency.", labels...)
		r.CounterFunc("spotweb_backend_shed_total", "Requests shed with 503 by the backend overload guard.",
			b.Shed, labels...)
	}
	return b
}

// MarketCounts returns live (non-draining) backend counts per market index.
func (c *Cluster) MarketCounts(numMarkets int) []int {
	out := make([]int, numMarkets)
	c.mu.Lock()
	c.fleet.CountByMarketInto(out)
	c.mu.Unlock()
	return out
}

// ScaleTo reconciles the cluster toward per-market backend counts: missing
// backends are launched (they join rotation once booted); surplus backends
// are retired (cluster.Front.Retire) — pulled from rotation immediately, in
// either mode, and terminated after the warning period so in-flight work
// completes. Surplus goes youngest first (highest id), so a booting or cold
// backend is drained before a warm one. It returns how many were started and
// stopped.
func (c *Cluster) ScaleTo(counts []int, capacities []float64) (started, stopped int) {
	c.update(func(now float64) {
		have := make([]int, len(counts))
		c.fleet.CountByMarketInto(have)
		for mkt, want := range counts {
			for n := have[mkt]; n < want; n++ {
				c.front.Launch(mkt, capacities[mkt], now)
				started++
			}
			if surplus := have[mkt] - want; surplus > 0 {
				live := c.fleet.AppendServersInMarket(nil, mkt) // in ID order
				for k := len(live) - 1; k >= len(live)-surplus; k-- {
					c.front.Retire(live[k].ID, now, c.cfg.Warning.Seconds())
					stopped++
				}
			}
		}
	})
	return started, stopped
}

// Snapshot returns a map of live (non-draining) backend id → market tag.
func (c *Cluster) Snapshot() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int)
	for _, s := range c.fleet.Servers() {
		if s.State() != cluster.StateDraining {
			out[s.ID] = s.Market
		}
	}
	return out
}

// backend returns a live backend by id.
func (c *Cluster) backend(id int) *Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backends[id]
}

// TotalReadyCapacity sums the warm-adjusted capacity of booted, non-draining
// backends.
func (c *Cluster) TotalReadyCapacity() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.front.ReadyCapacity(time.Since(c.epoch).Seconds())
}

// Revoke delivers a revocation warning for the given backends: the balancer
// reacts per §6.1 (unless vanilla), replacement capacity is started when
// needed, and the backends terminate after the warning period. offeredRate
// is the current request rate used for the utilization decision.
func (c *Cluster) Revoke(ids []int, offeredRate float64) {
	c.RevokeWithWarning(ids, offeredRate, c.cfg.Warning)
}

// RevokeWithWarning is Revoke with an explicit warning period, letting fault
// injectors deliver late (shortened) or lost (zero) warnings; the control
// plane decides (cluster.Front.Revoke).
func (c *Cluster) RevokeWithWarning(ids []int, offeredRate float64, warning time.Duration) {
	c.update(func(now float64) { c.front.Revoke(ids, offeredRate, now, warning.Seconds()) })
}

// SetSlowdown applies a service-time inflation factor (≥ 1) to every current
// and future backend — the chaos slowdown/flap fault. 1 restores full speed.
func (c *Cluster) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	c.slowdown.Store(math.Float64bits(factor))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.backends {
		b.SetSlowdown(factor)
	}
}

// ServeHTTP implements the front-end load balancer: route, proxy, and (for
// the vanilla baseline) health-check by consecutive failures. The
// transiency-aware balancer redispatches a failed request once to another
// backend, as HAProxy's redispatch option does; the vanilla baseline does
// not.
func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	session := r.Header.Get("X-Session")
	if c.instrumented {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		c.serve(sw, session)
		lat := time.Since(start)
		ok := sw.code == http.StatusOK || sw.code == 0
		if c.cfg.OnRequest != nil {
			c.cfg.OnRequest(lat, !ok)
		}
		c.met.requests.Inc()
		c.met.latency.Observe(lat.Seconds())
		if ok {
			c.met.slo.Observe(lat)
		} else {
			c.met.failed.Inc()
			c.met.slo.Miss()
		}
		return
	}
	c.serve(w, session)
}

// statusWriter records the final status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (c *Cluster) serve(w http.ResponseWriter, session string) {
	tries := 1
	if !c.cfg.Vanilla {
		tries = 2
	}
	for attempt := 0; attempt < tries; attempt++ {
		id, ok := c.balancer.Route(session)
		if !ok {
			c.met.unrouted.Inc()
			break
		}
		// A backend gone from the map was terminated; a vanilla balancer
		// still routes to it, and the request fails.
		if b := c.backend(id); b != nil {
			var bstart time.Time
			if b.metLat != nil {
				bstart = time.Now()
			}
			resp, err := c.client.Get(b.URL())
			b.metReqs.Inc()
			if b.metLat != nil {
				b.metLat.Observe(time.Since(bstart).Seconds())
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				c.noteSuccess(id)
				w.WriteHeader(http.StatusOK)
				return
			}
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		c.noteFailure(id)
		// A failed sticky backend should not pin the retry: rebind.
		if session != "" && !c.cfg.Vanilla {
			c.balancer.EndSession(session)
		}
	}
	http.Error(w, "backend failed", http.StatusBadGateway)
}

// noteFailure implements the vanilla health check: after FailDetect
// consecutive failures the backend is removed from rotation.
func (c *Cluster) noteFailure(id int) {
	c.mu.Lock()
	c.fails[id]++
	n := c.fails[id]
	c.mu.Unlock()
	if c.cfg.Vanilla && n >= c.cfg.FailDetect {
		c.balancer.Remove(id)
	}
}

func (c *Cluster) noteSuccess(id int) {
	c.mu.Lock()
	if c.fails[id] != 0 {
		c.fails[id] = 0
	}
	c.mu.Unlock()
}

// Close shuts down all backends and returns once the fleet's timer loop has
// exited.
func (c *Cluster) Close() {
	c.mu.Lock()
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	c.timer.Stop()
	for _, b := range c.backends {
		b.terminate()
	}
	c.mu.Unlock()
	<-c.stopped
}

// LoadGen drives open-loop load at a fixed rate against the cluster's
// front end for the given duration, recording every request. sessions > 0
// cycles that many sticky session ids.
func LoadGen(c *Cluster, rate float64, dur time.Duration, sessions int, rec *Recorder) {
	interval := time.Duration(float64(time.Second) / rate)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	i := 0
	// The LB hop runs in-process (ServeHTTP with a lightweight writer); the
	// LB→backend hop — the latency that matters — is on real sockets.
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for now := range tick.C {
		if now.After(deadline) {
			break
		}
		i++
		session := ""
		if sessions > 0 {
			session = "s" + metrics.Itoa(i%sessions)
		}
		wg.Add(1)
		go func(session string) {
			defer wg.Done()
			start := time.Now()
			w := &sink{}
			req, _ := http.NewRequest(http.MethodGet, "/", nil)
			if session != "" {
				req.Header.Set("X-Session", session)
			}
			c.ServeHTTP(w, req)
			lat := time.Since(start)
			rec.Record(lat, w.status() != http.StatusOK)
		}(session)
	}
	wg.Wait()
}

// sink is a minimal concurrent-safe ResponseWriter.
type sink struct {
	mu   sync.Mutex
	code int
}

func (s *sink) Header() http.Header { return http.Header{} }
func (s *sink) Write(b []byte) (int, error) {
	s.mu.Lock()
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.mu.Unlock()
	return len(b), nil
}
func (s *sink) WriteHeader(code int) {
	s.mu.Lock()
	if s.code == 0 {
		s.code = code
	}
	s.mu.Unlock()
}
func (s *sink) status() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.code == 0 {
		return http.StatusOK
	}
	return s.code
}
