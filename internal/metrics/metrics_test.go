package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(0.1)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.SetJournal(NewJournal(4))
	r.WritePrometheus(nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var tr *SLOTracker
	tr.Observe(time.Millisecond)
	if tr.WindowAttainment() != 1 || tr.CumulativeAttainment() != 1 {
		t.Fatal("nil SLO tracker reports perfect attainment")
	}
	var j *Journal
	j.Record(EvWarning, 1, 2, "")
	if j.Len() != 0 || j.Events() != nil {
		t.Fatal("nil journal must be inert")
	}
}

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", L("backend", "1"))
	b := r.Counter("reqs_total", "requests", L("backend", "1"))
	c := r.Counter("reqs_total", "requests", L("backend", "2"))
	if a != b {
		t.Fatal("same identity must return the same handle")
	}
	if a == c {
		t.Fatal("distinct labels must return distinct handles")
	}
	a.Add(3)
	b.Inc()
	if got := a.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c.Value() != 0 {
		t.Fatal("sibling series contaminated")
	}
	a.Add(-7) // negative deltas ignored: counters are monotone
	if a.Value() != 4 {
		t.Fatal("negative add must be ignored")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("lost updates: %d != %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	g.Set(2.5)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	// The linear/log seam must be contiguous and monotone.
	prev := -1
	for us := int64(0); us < 4096; us++ {
		i := bucketIndex(us)
		if i < prev {
			t.Fatalf("bucket index not monotone at %dµs: %d < %d", us, i, prev)
		}
		if i > prev+1 {
			t.Fatalf("bucket index jumps at %dµs: %d -> %d", us, prev, i)
		}
		prev = i
		if up := bucketUpper(i); float64(us)*1e-6 >= up {
			t.Fatalf("value %dµs not below its bucket upper %v", us, up)
		}
	}
}

// bucketUpper returns the exclusive upper bound of bucket i, in seconds.
func bucketUpper(i int) float64 { return float64(bucketUpperUS(i)) * 1e-6 }

// Quantiles returns several quantiles from one bucket snapshot: each is
// the upper bound of the bucket that holds its rank.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil {
		return out
	}
	var total int64
	var snap [nBuckets]int64
	for i := range snap {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	total += h.overflow.Load()
	if total == 0 {
		return out
	}
	for k, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		rank := int64(q*float64(total-1)) + 1
		var cum int64
		v := bucketUpper(nBuckets - 1)
		for i := range snap {
			cum += snap[i]
			if cum >= rank {
				v = bucketUpper(i)
				break
			}
		}
		out[k] = v
	}
	return out
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms uniformly.
	for ms := 1; ms <= 1000; ms++ {
		h.Observe(float64(ms) / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct{ q, want float64 }{
		{0.50, 0.500}, {0.95, 0.950}, {0.99, 0.990}, {0.999, 0.999},
	}
	for _, c := range checks {
		got := h.Quantiles(c.q)[0]
		if rel := math.Abs(got-c.want) / c.want; rel > 1.0/16+1e-9 {
			t.Fatalf("q%v = %v, want %v ±6.25%%", c.q, got, c.want)
		}
	}
	qs := h.Quantiles(0.5, 0.99)
	if qs[0] != h.Quantiles(0.5)[0] || qs[1] != h.Quantiles(0.99)[0] {
		t.Fatal("one snapshot for two quantiles disagrees with one per quantile")
	}
	if s := h.Sum(); math.Abs(s-500.5) > 0.01 {
		t.Fatalf("sum = %v, want ≈500.5", s)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram()
	h.Observe(5000) // beyond the ~1073s covered range
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantiles(0.99)[0]; got != bucketUpper(nBuckets-1) {
		t.Fatalf("overflow quantile = %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestSLOTrackerWindow(t *testing.T) {
	tr := NewSLOTracker(100*time.Millisecond, 10*time.Second, 5)
	now := int64(0)
	tr.SetClock(func() int64 { return now })

	// First interval: 3 good, 1 bad.
	tr.Observe(50 * time.Millisecond)
	tr.Observe(80 * time.Millisecond)
	tr.Observe(100 * time.Millisecond) // boundary counts as good
	tr.Observe(300 * time.Millisecond)
	if got := tr.WindowAttainment(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("window attainment = %v, want 0.75", got)
	}
	if got := tr.CumulativeAttainment(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("cumulative attainment = %v", got)
	}

	// Advance past the whole window: old slots age out, cumulative stays.
	now += 11 * int64(time.Second)
	if got := tr.WindowAttainment(); got != 1 {
		t.Fatalf("idle window attainment = %v, want 1", got)
	}
	if got := tr.CumulativeAttainment(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("cumulative attainment changed: %v", got)
	}

	// New slow interval dominates the fresh window.
	tr.Observe(time.Second)
	if got := tr.WindowAttainment(); got != 0 {
		t.Fatalf("window attainment = %v, want 0", got)
	}
	good, total := tr.Totals()
	if good != 3 || total != 5 {
		t.Fatalf("totals = %d/%d", good, total)
	}
}

func TestSLOTrackerConcurrent(t *testing.T) {
	tr := NewSLOTracker(time.Millisecond, time.Second, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Observe(time.Duration(i%2) * time.Millisecond * 2)
			}
		}()
	}
	wg.Wait()
	if _, total := tr.Totals(); total != 16000 {
		t.Fatalf("total = %d", total)
	}
}

func TestJournalRingAndCounts(t *testing.T) {
	j := NewJournal(4)
	base := time.Unix(100, 0)
	j.SetClock(func() time.Time { return base })
	for i := 0; i < 6; i++ {
		j.Record(EvWarning, i, 2, "w")
	}
	j.Record(EvDrainStart, 9, -1, "redistribute")
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// Oldest-first, contiguous sequence, newest retained.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %+v", evs)
		}
	}
	if last := evs[len(evs)-1]; last.Type != EvDrainStart || last.Backend != 9 {
		t.Fatalf("newest event = %+v", last)
	}
	counts := j.Counts()
	if counts[EvWarning] != 6 || counts[EvDrainStart] != 1 {
		t.Fatalf("lifetime counts must survive eviction: %v", counts)
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record(EvSessionsMigrated, i, -1, "")
			}
		}()
	}
	wg.Wait()
	if got := j.Counts()[EvSessionsMigrated]; got != 4000 {
		t.Fatalf("count = %d", got)
	}
	if j.Len() != 64 {
		t.Fatalf("len = %d", j.Len())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("spotweb_lb_requests_total", "Requests routed.").Add(7)
	r.Counter("spotweb_backend_requests_total", "Per-backend requests.", L("backend", "0")).Add(3)
	r.Gauge("spotweb_backends_live", "Live backends.").Set(2)
	r.GaugeFunc("spotweb_queue_depth", "In-flight requests.", func() float64 { return 5 })
	h := r.Histogram("spotweb_lb_request_seconds", "Request latency.")
	h.Observe(0.001)
	h.Observe(0.002)
	h.Observe(0.100)
	tr := NewSLOTracker(100*time.Millisecond, time.Minute, 6)
	tr.Observe(10 * time.Millisecond)
	tr.Observe(500 * time.Millisecond)
	r.SLO("spotweb_slo", "Latency SLO.", tr)
	j := NewJournal(8)
	j.Record(EvWarning, 1, 0, "")
	j.Record(EvSessionsMigrated, 1, 0, "n=12")
	r.SetJournal(j)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE spotweb_lb_requests_total counter",
		"spotweb_lb_requests_total 7",
		`spotweb_backend_requests_total{backend="0"} 3`,
		"spotweb_backends_live 2",
		"spotweb_queue_depth 5",
		"# TYPE spotweb_lb_request_seconds histogram",
		`spotweb_lb_request_seconds_bucket{le="+Inf"} 3`,
		"spotweb_lb_request_seconds_count 3",
		"spotweb_slo_attainment_ratio 0.5",
		"spotweb_slo_target_seconds 0.1",
		"spotweb_slo_requests_total 2",
		`spotweb_events_total{type="revocation_warning"} 1`,
		`spotweb_events_total{type="sessions_migrated"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The le labels render the exact bucket bounds (log-linear, base-2
	// octaves with 16 sub-buckets): 1000µs lands in [1024µs), 2000µs in
	// [2048µs), 100ms in [102.4ms).
	for _, want := range []string{
		`spotweb_lb_request_seconds_bucket{le="0.001024"} 1`,
		`spotweb_lb_request_seconds_bucket{le="0.002048"} 2`,
		`spotweb_lb_request_seconds_bucket{le="0.1024"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestRegistryConcurrentScrape(t *testing.T) {
	// Scrapes race hot-path writes and handle creation; must be clean
	// under -race.
	r := NewRegistry()
	j := NewJournal(32)
	r.SetJournal(j)
	tr := r.SLO("slo", "", NewSLOTracker(time.Millisecond, time.Second, 4))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("reqs_total", "", L("w", Itoa(w)))
			h := r.Histogram("lat_seconds", "")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%50) / 1000)
				tr.Observe(time.Duration(i%3) * time.Millisecond)
				j.Record(EvBackendUp, i, -1, "")
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.WritePrometheus(&b)
		if b.Len() == 0 {
			t.Fatal("empty scrape")
		}
	}
	close(stop)
	wg.Wait()
}
