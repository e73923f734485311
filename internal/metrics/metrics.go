// Package metrics is SpotWeb's dependency-free observability substrate: a
// registry of named counters, gauges, latency histograms and SLO trackers
// plus a bounded structured event journal, exposed in Prometheus text
// format. Every claim in the paper is an SLO claim (Figs. 4–6 are
// tail-latency and availability curves under revocations), so the live
// system needs the same signals the evaluation plots: p99 latency, SLO
// attainment, solver cost, and revocation-handling timelines.
//
// Two properties shape the design:
//
//   - Hot-path cheapness. Observe/Inc on the request path must not
//     serialize goroutines: a counter is one atomic add, histogram buckets
//     are plain atomic adds, and the SLO tracker's ring slots are atomic.
//     Nothing on the write path takes the registry lock.
//   - Zero-overhead disablement. A nil *Registry hands out nil handles, and
//     every handle method is a nil-receiver no-op — instrumented code calls
//     metrics unconditionally and costs one predictable branch when
//     metrics are off. No build tags, no interface indirection.
//
// The concurrent-safe types here are the live-path wrappers over the
// non-goroutine-safe building blocks in internal/stats (stats.Histogram,
// stats.P2Quantile), which remain the right tools for single-threaded
// analysis pipelines.
package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter: one atomic add per
// increment. All methods are safe for concurrent use and are no-ops on a
// nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 value (atomic bit-store). Methods are safe
// for concurrent use and no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind tags a family for the Prometheus TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labelled instance inside a family.
type series struct {
	labels    string // rendered {k="v",...} or ""
	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	counterFn func() int64
	hist      *Histogram
	slo       *SLOTracker
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string
	series map[string]*series
}

// Registry is the root of the metrics namespace. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is the documented
// "metrics disabled" state: every constructor returns a nil handle and
// every handle method is a no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	journal  *Journal
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family with the given name,
// enforcing one kind per name.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// seriesFor returns (creating if needed) the series with the rendered
// label set inside a family. Returns (series, created).
func (f *family) seriesFor(labels []Label) (*series, bool) {
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s, !ok
}

// Counter returns the counter with the given name and labels, creating it
// on first use (get-or-create: the same identity always yields the same
// handle). Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindCounter)
	s, created := f.seriesFor(labels)
	if created {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge with the given name and labels (get-or-create).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGauge)
	s, created := f.seriesFor(labels)
	if created {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a pull-time gauge: fn is invoked at exposition. fn
// must be safe to call concurrently with the instrumented code.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGauge)
	s, _ := f.seriesFor(labels)
	s.gaugeFn = fn
}

// CounterFunc registers a pull-time counter (fn must be monotone).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindCounter)
	s, _ := f.seriesFor(labels)
	s.counterFn = fn
}

// Histogram returns the latency histogram with the given name and labels
// (get-or-create). Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindHistogram)
	s, created := f.seriesFor(labels)
	if created {
		s.hist = NewHistogram()
	}
	return s.hist
}

// SLO registers (get-or-create) a windowed SLO-attainment tracker exposed
// as <name>_attainment_ratio (trailing window), _attainment_ratio_cumulative,
// _target_seconds, _good_total and _requests_total series.
func (r *Registry) SLO(name, help string, t *SLOTracker, labels ...Label) *SLOTracker {
	if r == nil || t == nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGauge)
	s, created := f.seriesFor(labels)
	if created || s.slo == nil {
		s.slo = t
	}
	return s.slo
}

// SetJournal attaches an event journal whose per-type counts are exposed
// as spotweb_events_total{type="..."}.
func (r *Registry) SetJournal(j *Journal) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.journal = j
	r.mu.Unlock()
}

// renderLabels renders a sorted, escaped {k="v",...} block ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Itoa is a tiny allocation-free-ish int formatter for label values
// (backend ids, market indexes).
func Itoa(n int) string { return strconv.Itoa(n) }
