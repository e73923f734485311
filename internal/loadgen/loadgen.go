// Package loadgen is the closed-loop load-generation harness for the LB
// data plane: N worker goroutines hammer a Target as fast as it responds,
// counting every operation and sampling latencies into a log-linear
// histogram. Closed-loop max-throughput is the right shape for measuring a
// routing hot path (an open-loop generator would need a pacing clock that
// itself costs more than a Route); the in-process testbed's
// open-loop generator (testbed.LoadGen) remains the tool for SLO
// experiments at paper-scale rates.
//
// Latency is sampled (default every 64th op per worker) rather than
// measured per-op: at data-plane speeds two clock reads cost as much as the
// operation under test, so per-op timing would halve the very throughput
// being measured. Sampled quantiles over hundreds of thousands of ops are
// statistically indistinguishable from exhaustive ones for a stationary
// workload.
package loadgen

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lb"
	"repro/internal/metrics"
)

// Target serves one operation; it reports whether the request was served
// (false = dropped/failed). Implementations must be safe for concurrent
// use.
type Target func(session string) bool

// Config shapes one load-generation run.
type Config struct {
	// Workers is the number of concurrent closed-loop workers (default
	// 2×GOMAXPROCS).
	Workers int
	// Duration is the measurement window (default 1s).
	Duration time.Duration
	// Sessions > 0 drives sticky traffic cycling that many session ids;
	// 0 sends only sessionless requests.
	Sessions int
	// SampleEvery is the per-worker latency sampling stride (default 64;
	// 1 = time every op).
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	return c
}

// Result summarizes a run. Latency quantiles come from the sampled
// observations; RPS from the exact op count over the wall clock.
type Result struct {
	Ops     int64   `json:"ops"`
	Served  int64   `json:"served"`
	Dropped int64   `json:"dropped"`
	WallSec float64 `json:"wall_sec"`
	RPS     float64 `json:"rps"`
	Workers int     `json:"workers"`
	Samples int64   `json:"latency_samples"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	P99us   float64 `json:"p99_us"`
	P999us  float64 `json:"p999_us"`
}

// String renders a one-line human summary.
func (r Result) String() string {
	return fmt.Sprintf("ops=%d served=%d dropped=%d wall=%.2fs rps=%.0f p50=%.1fµs p99=%.1fµs p99.9=%.1fµs",
		r.Ops, r.Served, r.Dropped, r.WallSec, r.RPS, r.P50us, r.P99us, r.P999us)
}

// Run drives cfg.Workers closed-loop goroutines against target for
// cfg.Duration and returns the aggregate.
func Run(cfg Config, target Target) Result {
	cfg = cfg.withDefaults()

	// Pre-generate session ids so the hot loop never allocates strings.
	var sessions []string
	if cfg.Sessions > 0 {
		sessions = make([]string, cfg.Sessions)
		for i := range sessions {
			sessions[i] = "s" + metrics.Itoa(i)
		}
	}

	hist := metrics.NewHistogram() // concurrent-safe log-linear buckets
	var stop atomic.Bool
	var served, dropped, samples int64
	var wg sync.WaitGroup

	start := time.Now()
	timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ok, drop, n int64
			stride := cfg.SampleEvery
			// Offset workers into the session pool so shards spread.
			idx := w * 7919
			for i := 0; !stop.Load(); i++ {
				sess := ""
				if sessions != nil {
					idx++
					sess = sessions[idx%len(sessions)]
				}
				if i%stride == 0 {
					t0 := time.Now()
					if target(sess) {
						ok++
					} else {
						drop++
					}
					hist.Observe(time.Since(t0).Seconds())
					n++
				} else if target(sess) {
					ok++
				} else {
					drop++
				}
			}
			atomic.AddInt64(&served, ok)
			atomic.AddInt64(&dropped, drop)
			atomic.AddInt64(&samples, n)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	qs := hist.Quantiles(0.50, 0.90, 0.99, 0.999)
	r := Result{
		Ops:     served + dropped,
		Served:  served,
		Dropped: dropped,
		WallSec: wall.Seconds(),
		Workers: cfg.Workers,
		Samples: samples,
		P50us:   qs[0] * 1e6,
		P90us:   qs[1] * 1e6,
		P99us:   qs[2] * 1e6,
		P999us:  qs[3] * 1e6,
	}
	if wall > 0 {
		r.RPS = float64(r.Ops) / wall.Seconds()
	}
	return r
}

// BalancerTarget adapts a Balancer's routing hot path — the data-plane hop
// whose per-request cost this harness exists to pin down.
func BalancerTarget(b *lb.Balancer) Target {
	return func(session string) bool {
		_, ok := b.Route(session)
		return ok
	}
}

// HandlerTarget adapts an in-process http.Handler (e.g. the testbed
// cluster's front end): real handler dispatch, no sockets on the generator
// hop.
func HandlerTarget(h http.Handler) Target {
	pool := sync.Pool{New: func() any { return new(nullWriter) }}
	return func(session string) bool {
		req, err := http.NewRequest(http.MethodGet, "/", nil)
		if err != nil {
			return false
		}
		if session != "" {
			req.Header.Set("X-Session", session)
		}
		w := pool.Get().(*nullWriter)
		w.code = 0
		h.ServeHTTP(w, req)
		ok := w.code == 0 || w.code == http.StatusOK
		pool.Put(w)
		return ok
	}
}

// URLTarget adapts a live HTTP endpoint (smoke tests against a running
// daemon). client may be nil for a tuned default.
func URLTarget(base string, client *http.Client) Target {
	if client == nil {
		client = &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 256,
			},
		}
	}
	return func(session string) bool {
		req, err := http.NewRequest(http.MethodGet, base, nil)
		if err != nil {
			return false
		}
		if session != "" {
			req.Header.Set("X-Session", session)
		}
		resp, err := client.Do(req)
		if err != nil {
			return false
		}
		_, _ = discard(resp)
		return resp.StatusCode == http.StatusOK
	}
}

// discard drains and closes a response body so connections are reused.
func discard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	var buf [512]byte
	var n int64
	for {
		m, err := resp.Body.Read(buf[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
}

// nullWriter is a minimal ResponseWriter for in-process handler drives. Each
// worker uses its own instance (via the pool), so no locking is needed.
type nullWriter struct {
	code int
}

func (n *nullWriter) Header() http.Header { return http.Header{} }
func (n *nullWriter) Write(b []byte) (int, error) {
	if n.code == 0 {
		n.code = http.StatusOK
	}
	return len(b), nil
}
func (n *nullWriter) WriteHeader(code int) {
	if n.code == 0 {
		n.code = code
	}
}
