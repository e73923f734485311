// Package testbed is the in-process equivalent of the paper's EC2 testbed:
// real net/http backend servers with a load-dependent service-time model and
// cold-cache warm-up (the MediaWiki + Memcached stand-in), fronted by a
// reverse-proxying weighted-round-robin load balancer with online weights
// and revocation-warning handling (the modified-HAProxy stand-in), plus an
// open-loop load generator and a latency recorder. Experiments run in
// compressed time (seconds instead of minutes) but exercise the same code
// path: real sockets, real concurrency, revocations mid-run.
package testbed

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// BackendConfig sets the service model of one backend server.
type BackendConfig struct {
	// Capacity is the target req/s the server sustains when warm.
	Capacity float64
	// BaseServiceTime is the zero-queue service time when warm.
	BaseServiceTime time.Duration
	// StartDelay is the simulated VM boot time before the server accepts
	// requests (503 until then).
	StartDelay time.Duration
	// WarmupDur is the cold-cache window during which service times are
	// inflated (Memcached warm-up): capacity ramps from internal/cluster's
	// cold factor, 0.4, to 1, and service times are divided by it.
	WarmupDur time.Duration
}

// queueLimit bounds a backend's concurrent requests; beyond it the server
// sheds load with 503 (the overload guard).
const queueLimit = 256

func (c BackendConfig) withDefaults() BackendConfig {
	if c.Capacity <= 0 {
		c.Capacity = 100
	}
	if c.BaseServiceTime <= 0 {
		c.BaseServiceTime = 5 * time.Millisecond
	}
	return c
}

// Backend is one web server in the front-end tier.
type Backend struct {
	ID int
	// Market tags the backend with the catalog market it was bought in
	// (-1 when untagged).
	Market int
	cfg    BackendConfig
	// node is the backend's lifecycle in the Cluster's fleet, clocked in
	// seconds since epoch; the handler reads only its launch times.
	node  *cluster.Server
	epoch time.Time

	srv      *httptest.Server
	inflight atomic.Int64
	shed     atomic.Int64
	closed   atomic.Bool
	slowdown atomic.Uint64 // float64 bits; 0 means full speed (factor 1)

	// Per-backend instrument handles (nil when the cluster runs without a
	// metrics registry; all operations on them are then no-ops).
	metReqs *metrics.Counter
	metLat  *metrics.Histogram
}

// newBackend starts the HTTP server of a launched fleet server at once; the
// handler answers 503 until the node's boot ends.
func newBackend(node *cluster.Server, epoch time.Time, cfg BackendConfig) *Backend {
	b := &Backend{ID: node.ID, Market: node.Market, cfg: cfg.withDefaults(), node: node, epoch: epoch}
	b.srv = httptest.NewServer(http.HandlerFunc(b.handle))
	return b
}

// URL returns the backend's base URL.
func (b *Backend) URL() string { return b.srv.URL }

// Shed returns the number of requests rejected by the overload guard.
func (b *Backend) Shed() int64 { return b.shed.Load() }

// SetSlowdown applies a service-time inflation factor (≥ 1) — the chaos
// slowdown fault. 1 restores full speed.
func (b *Backend) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	b.slowdown.Store(math.Float64bits(factor))
}

// slowdownFactor returns the active service-time inflation (≥ 1).
func (b *Backend) slowdownFactor() float64 {
	bits := b.slowdown.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

func (b *Backend) handle(w http.ResponseWriter, r *http.Request) {
	if b.closed.Load() {
		http.Error(w, "terminated", http.StatusServiceUnavailable)
		return
	}
	booted, warm := b.node.Warmth(time.Since(b.epoch).Seconds())
	if !booted {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	n := b.inflight.Add(1)
	defer b.inflight.Add(-1)
	if int(n) > queueLimit {
		b.shed.Add(1)
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	// Service time: base, inflated while cold or slowed by fault injection,
	// plus a processor-sharing penalty as concurrency approaches the
	// capacity×service-time limit.
	st := time.Duration(float64(b.cfg.BaseServiceTime) / warm * b.slowdownFactor())
	saturation := float64(n) * float64(st.Seconds()) * 1 / (b.cfg.Capacity * warm)
	if saturation > 0.5 {
		st = time.Duration(float64(st) * (1 + 2*(saturation-0.5)))
	}
	time.Sleep(st)
	fmt.Fprintf(w, "ok from %d\n", b.ID)
}

// terminate closes the backend: in-flight requests fail fast, new ones are
// refused.
func (b *Backend) terminate() {
	if b.closed.CompareAndSwap(false, true) {
		b.srv.Close()
	}
}

// recorderSample is one request observation.
type recorderSample struct {
	at      time.Duration // since recorder start
	latency time.Duration
	dropped bool
}

// Recorder collects per-request latency samples, thread-safe.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	samples []recorderSample
}

// NewRecorder starts a recorder clocked from now.
func NewRecorder() *Recorder { return &Recorder{start: time.Now()} }

// Record adds one observation.
func (r *Recorder) Record(latency time.Duration, dropped bool) {
	r.mu.Lock()
	r.samples = append(r.samples, recorderSample{
		at: time.Since(r.start), latency: latency, dropped: dropped,
	})
	r.mu.Unlock()
}

// Window returns the served latencies (seconds) and the drop count within
// [from, to) since recorder start.
func (r *Recorder) Window(from, to time.Duration) (latencies []float64, drops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		if s.at < from || s.at >= to {
			continue
		}
		if s.dropped {
			drops++
		} else {
			latencies = append(latencies, s.latency.Seconds())
		}
	}
	return latencies, drops
}

// Totals returns overall served and dropped counts.
func (r *Recorder) Totals() (served, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		if s.dropped {
			dropped++
		} else {
			served++
		}
	}
	return served, dropped
}
