package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
)

// A target that stalls once must make the requests queued behind it late:
// measured from their due time they carry the stall, although the system
// answered each of them instantly once it was sent (the closed-loop view
// that coordinated omission would report).
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const n, gap, stall = 20, 5 * time.Millisecond, 50 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	calls := 0
	samples := openLoop(time.Now(), due, 1, func(i int) bool {
		calls++
		if i == 2 {
			time.Sleep(stall)
		}
		return true
	})
	if calls != n || len(samples) != n {
		t.Fatalf("sent %d requests, recorded %d, want %d: a stalled generator must not skip requests", calls, len(samples), n)
	}
	// Request 3 was due 5 ms after request 2 started its 50 ms stall.
	s := samples[3]
	if s.serviceMS() > 20 {
		t.Fatalf("request 3 spent %.1f ms in the target; the test needs it fast", s.serviceMS())
	}
	if s.fromDueMS() < 35 {
		t.Errorf("request 3 reads %.1f ms from its due time; the 50 ms stall ahead of it was not charged", s.fromDueMS())
	}
	if s.lateMS() < 35 {
		t.Errorf("request 3 was sent %.1f ms late; want the stall to show as generator lateness", s.lateMS())
	}
	// The backlog drains: the schedule is kept, so late requests go out
	// back to back until the generator has caught up.
	last := samples[n-1]
	if last.lateMS() > 10 {
		t.Errorf("last request still %.1f ms late; the generator never caught up", last.lateMS())
	}
	for i, s := range samples {
		if s.sent < s.due {
			t.Errorf("request %d sent %.2f ms before it was due", i, float64(s.due-s.sent)/1e6)
		}
	}
}

func TestOpenLoopWidthSplitsTheSchedule(t *testing.T) {
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	seen := make([]int, len(due))
	samples := openLoop(time.Now(), due, 4, func(i int) bool { seen[i]++; return i%2 == 0 })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("request %d sent %d times", i, c)
		}
		if samples[i].ok != (i%2 == 0) {
			t.Fatalf("request %d: ok=%v recorded against the wrong request", i, samples[i].ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	var s []float64
	for i := 1; i <= 101; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 51}, {90, 91}, {99, 100}, {100, 101}, {99.5, 100.5}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..101, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := (timing{3, 1, 2}).median(); got != 2 {
		t.Errorf("median of unsorted samples = %v, want 2", got)
	}
}

// The highest percentile reported is the highest with at least ten samples
// beyond it.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A span's self time is its duration minus the union of its children's
// intervals: overlapping (parallel) children are not subtracted twice.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 7, Name: "round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 7, Name: "build", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 7, Name: "solve", Start: 20, End: 50}, // overlaps build
		{ID: 3, Parent: 0, Op: 7, Name: "solve", Start: 60, End: 70},
		{ID: 4, Parent: 1, Op: 7, Name: "predict", Start: 12, End: 17},
		{ID: 5, Parent: 0, Op: 7, Name: "late", Start: 95, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - (40 + 10 + 5), 1: 20 - 5, 2: 30, 3: 10, 4: 5, 5: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Per-operation sums, in microseconds.
	if got := perOp(spans, false, "solve"); len(got) != 1 || math.Abs(got[0]-0.040) > 1e-12 {
		t.Errorf("perOp(solve) = %v, want [0.040]", got)
	}
	if got := perOp(spans, true, "build"); len(got) != 1 || math.Abs(got[0]-0.015) > 1e-12 {
		t.Errorf("perOp(build, self) = %v, want [0.015]", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.closed() != nil {
		t.Fatalf("nil tracer recorded something")
	}
	live := newTracer()
	a := live.begin("outer", -1, 1)
	b := live.begin("inner", a, 1)
	live.end(b)
	open := live.begin("never-closed", a, 1)
	_ = open
	live.end(a)
	got := live.closed()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].End < got[1].End {
		t.Fatalf("closed spans = %+v, want outer and inner only, inner inside outer", got)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "lb.route_ns_per_op", "p99.9", "a-b_c.D9", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "slash/name", "pct%", ".leading", "_leading", "ünï", string(long)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// BENCHMARK.json and the program agree: every declared workload is
// implemented, and the result line carries exactly the declared metrics.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness implements %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		for _, m := range spec.EndToEnd {
			if m.Name != "setup_s" && m.Name != "rss_p90_mb" && alias(w.Name, m.Name) == "" {
				t.Errorf("end-to-end metric %q has no stated meaning on %q", m.Name, w.Name)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	rep := newReport(runOpts{workload: "plan_single", seconds: 1})
	rep.Attempted = 3
	for _, m := range spec.EndToEnd {
		rep.set(m.Name, 1.5)
	}
	line := rep.result(spec)
	if !line.Correct || len(line.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("untraced result: correct=%v with %d metrics, want %d; checks %v",
			line.Correct, len(line.Metrics), len(spec.EndToEnd), rep.Checks)
	}
	if line.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s unit = %q, want s", line.Metrics["setup_s"].Unit)
	}

	rep = newReport(runOpts{workload: "plan_single", seconds: 1, trace: true})
	rep.Attempted = 3
	rep.set("portfolio.solve_ms", 2)
	line = rep.result(spec)
	if !line.Correct || len(line.Metrics) != len(spec.PerLayer) {
		t.Fatalf("traced result: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(spec.PerLayer))
	}
	if line.Metrics["lb.warnings"].Value != 0 || line.Metrics["portfolio.solve_ms"].Value != 2 {
		t.Errorf("traced result: idle layers must read 0 and measured ones their value: %+v", line.Metrics)
	}

	rep = newReport(runOpts{workload: "plan_single", seconds: 1})
	rep.Attempted = 1
	rep.set("made.up_metric", 1)
	if line = rep.result(spec); line.Correct {
		t.Errorf("a metric BENCHMARK.json does not declare, and missing end-to-end metrics, must fail the run")
	}
	rep = newReport(runOpts{workload: "plan_single", seconds: 1, trace: true})
	rep.Attempted = 1
	rep.set("portfolio.solve_ms", math.NaN())
	if line = rep.result(spec); line.Correct || line.Metrics["portfolio.solve_ms"].Value != 0 {
		t.Errorf("a non-finite value must fail the run and not reach the JSON line")
	}
}

// The harness reads a layer's registry through its public text exposition.
func TestScrapeRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("reqs_total", "requests", metrics.L("backend", "0")).Add(3)
	reg.Counter("reqs_total", "requests", metrics.L("backend", "1")).Add(4)
	fast := reg.Histogram("hop_seconds", "hop", metrics.L("backend", "0"))
	slow := reg.Histogram("hop_seconds", "hop", metrics.L("backend", "1"))
	for i := 0; i < 90; i++ {
		fast.Observe(0.002)
	}
	for i := 0; i < 10; i++ {
		slow.Observe(0.050)
	}
	prom := scrape(reg)
	if got := promSum(prom, "reqs_total", nil); got != 7 {
		t.Errorf("sum over all series = %v, want 7", got)
	}
	if got := promSum(prom, "reqs_total", map[string]string{"backend": "1"}); got != 4 {
		t.Errorf("sum over backend 1 = %v, want 4", got)
	}
	p50, n := promHistQuantile(prom, "hop_seconds", 0.5)
	if n != 100 || p50 < 0.002 || p50 > 0.0022 {
		t.Errorf("merged p50 = %v over %d samples, want ≈ 0.002 over 100", p50, n)
	}
	if p99, _ := promHistQuantile(prom, "hop_seconds", 0.99); p99 < 0.050 || p99 > 0.054 {
		t.Errorf("merged p99 = %v, want ≈ 0.050 (the slow series)", p99)
	}
	if sum := promSum(prom, "hop_seconds_sum", nil); math.Abs(sum-(90*0.002+10*0.050)) > 1e-6 {
		t.Errorf("merged sum = %v, want %v", sum, 90*0.002+10*0.050)
	}
}

func TestStepRate(t *testing.T) {
	n := 10
	lo, hi := math.Inf(1), 0.0
	for k := 0; k < n; k++ {
		r := stepRate(k, n)
		lo, hi = math.Min(lo, r), math.Max(hi, r)
		if math.Mod(r, 20) != 0 {
			t.Errorf("interval %d: rate %v is not a multiple of 20", k, r)
		}
	}
	if stepRate(0, n) != 120 || stepRate(n-1, n) != 160 || lo != 120 || hi < 260 || hi > 280 {
		t.Errorf("rate schedule %v..%v starting %v ending %v, want 120 → ≈280 → 160", lo, hi, stepRate(0, n), stepRate(n-1, n))
	}
}
