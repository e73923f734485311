// Package monitor implements SpotWeb's load-monitoring and system-monitoring
// components (§3.2, §5.2): a thread-safe collector for application-level
// metrics (arrival rate, throughput, drop rate, response-time distribution —
// the data the paper scrapes from HAProxy's halog), a market monitor for
// price and failure-probability snapshots with revocation-warning relay, and
// the REST interface that exposes both to the predictors and the optimizer.
package monitor

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Stats is one snapshot of application-level metrics over the trailing
// window.
type Stats struct {
	// WindowSec is the measurement window length in seconds.
	WindowSec float64 `json:"window_sec"`
	// ArrivalRate is offered requests/second (served + dropped).
	ArrivalRate float64 `json:"arrival_rate"`
	// Throughput is served requests/second.
	Throughput float64 `json:"throughput"`
	// DropRate is dropped requests/second.
	DropRate float64 `json:"drop_rate"`
	// Latency quantiles of served requests, in seconds.
	MeanLatency float64 `json:"mean_latency"`
	P50         float64 `json:"p50"`
	P90         float64 `json:"p90"`
	P99         float64 `json:"p99"`
	// Samples is the number of requests in the window.
	Samples int `json:"samples"`
}

type sample struct {
	at      time.Time
	latency float64
	dropped bool
}

// Collector records per-request observations and answers sliding-window
// snapshots. It is safe for concurrent use. The zero value is not usable;
// construct with NewCollector.
type Collector struct {
	mu      sync.Mutex
	window  time.Duration
	samples []sample
	now     func() time.Time
	// Lifetime tail gauges (P² streaming estimators — O(1) memory over the
	// whole process lifetime, not just the sliding window).
	lifeP50, lifeP99 *stats.P2Quantile
	lifeServed       int
	lifeDropped      int
}

// NewCollector creates a collector with the given sliding window
// (default 60 s when zero).
func NewCollector(window time.Duration) *Collector {
	if window <= 0 {
		window = time.Minute
	}
	return &Collector{
		window:  window,
		now:     time.Now,
		lifeP50: stats.NewP2Quantile(0.50),
		lifeP99: stats.NewP2Quantile(0.99),
	}
}

// SetClock overrides the time source (tests).
func (c *Collector) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Record adds one request observation.
func (c *Collector) Record(latency time.Duration, dropped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.samples = append(c.samples, sample{at: now, latency: latency.Seconds(), dropped: dropped})
	if dropped {
		c.lifeDropped++
	} else {
		c.lifeServed++
		c.lifeP50.Observe(latency.Seconds())
		c.lifeP99.Observe(latency.Seconds())
	}
	c.trimLocked(now)
}

// LifetimeStats is the process-lifetime view backed by the P² estimators.
type LifetimeStats struct {
	Served  int     `json:"served"`
	Dropped int     `json:"dropped"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
}

// Lifetime returns the since-start statistics.
func (c *Collector) Lifetime() LifetimeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LifetimeStats{
		Served:  c.lifeServed,
		Dropped: c.lifeDropped,
		P50:     c.lifeP50.Value(),
		P99:     c.lifeP99.Value(),
	}
}

// trimLocked discards samples older than the window.
func (c *Collector) trimLocked(now time.Time) {
	cutoff := now.Add(-c.window)
	i := 0
	for i < len(c.samples) && c.samples[i].at.Before(cutoff) {
		i++
	}
	if i > 0 {
		c.samples = append(c.samples[:0], c.samples[i:]...)
	}
}

// Snapshot computes the current sliding-window statistics.
func (c *Collector) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.trimLocked(now)
	w := c.window.Seconds()
	st := Stats{WindowSec: w, Samples: len(c.samples)}
	if len(c.samples) == 0 {
		return st
	}
	var served, dropped int
	var lats []float64
	var sum float64
	for _, s := range c.samples {
		if s.dropped {
			dropped++
			continue
		}
		served++
		lats = append(lats, s.latency)
		sum += s.latency
	}
	st.ArrivalRate = float64(served+dropped) / w
	st.Throughput = float64(served) / w
	st.DropRate = float64(dropped) / w
	if served > 0 {
		st.MeanLatency = sum / float64(served)
		q := stats.Quantiles(lats, 0.50, 0.90, 0.99)
		st.P50, st.P90, st.P99 = q[0], q[1], q[2]
	}
	return st
}

// RateSeries accumulates per-interval arrival counts so the workload
// predictor can be fed one value per interval — the bridge between the
// collector and Predictor.Observe.
type RateSeries struct {
	mu       sync.Mutex
	interval time.Duration
	start    time.Time
	counts   []float64
	now      func() time.Time
}

// NewRateSeries buckets arrivals into intervals of the given length.
func NewRateSeries(interval time.Duration) *RateSeries {
	if interval <= 0 {
		interval = time.Minute
	}
	r := &RateSeries{interval: interval, now: time.Now}
	r.start = r.now()
	return r
}

// SetClock overrides the time source (tests). It also resets the origin.
func (r *RateSeries) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
	r.start = now()
}

// Mark records one arrival at the current time.
func (r *RateSeries) Mark() {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := int(r.now().Sub(r.start) / r.interval)
	if idx < 0 {
		return
	}
	for len(r.counts) <= idx {
		r.counts = append(r.counts, 0)
	}
	r.counts[idx]++
}

// CompletedRates returns the arrival rates (req/s) of all fully elapsed
// intervals.
func (r *RateSeries) CompletedRates() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := int(r.now().Sub(r.start) / r.interval)
	if cur < 0 {
		cur = 0
	}
	if cur > len(r.counts) {
		cur = len(r.counts)
	}
	out := make([]float64, cur)
	sec := r.interval.Seconds()
	for i := 0; i < cur; i++ {
		out[i] = r.counts[i] / sec
	}
	return out
}
