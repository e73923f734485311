package monitor

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/market"
)

// fakeClock is a controllable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestCollectorSnapshot(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(10 * time.Second)
	c.SetClock(clk.now)
	for i := 0; i < 50; i++ {
		c.Record(100*time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		c.Record(0, true)
	}
	st := c.Snapshot()
	if st.Samples != 60 {
		t.Fatalf("samples = %d", st.Samples)
	}
	if st.ArrivalRate != 6 || st.Throughput != 5 || st.DropRate != 1 {
		t.Fatalf("rates = %v/%v/%v", st.ArrivalRate, st.Throughput, st.DropRate)
	}
	if math.Abs(st.MeanLatency-0.1) > 1e-9 || math.Abs(st.P99-0.1) > 1e-9 {
		t.Fatalf("latency = %v/%v", st.MeanLatency, st.P99)
	}
}

func TestCollectorWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(5 * time.Second)
	c.SetClock(clk.now)
	c.Record(50*time.Millisecond, false)
	clk.advance(6 * time.Second)
	st := c.Snapshot()
	if st.Samples != 0 {
		t.Fatalf("expired samples retained: %d", st.Samples)
	}
	// Empty snapshot is all zeros, no panic.
	if st.ArrivalRate != 0 || st.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", st)
	}
}

func TestCollectorQuantiles(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(time.Minute)
	c.SetClock(clk.now)
	for i := 1; i <= 100; i++ {
		c.Record(time.Duration(i)*time.Millisecond, false)
	}
	st := c.Snapshot()
	if st.P50 < 0.045 || st.P50 > 0.055 {
		t.Fatalf("P50 = %v", st.P50)
	}
	if st.P90 < 0.085 || st.P90 > 0.095 {
		t.Fatalf("P90 = %v", st.P90)
	}
	if st.P99 < st.P90 {
		t.Fatal("P99 < P90")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Record(time.Millisecond, i%10 == 0)
				if i%50 == 0 {
					c.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Snapshot(); st.Samples != 4000 {
		t.Fatalf("samples = %d", st.Samples)
	}
}

func TestRateSeries(t *testing.T) {
	clk := newFakeClock()
	r := NewRateSeries(time.Second)
	r.SetClock(clk.now)
	for i := 0; i < 10; i++ {
		r.Mark()
	}
	clk.advance(time.Second)
	for i := 0; i < 20; i++ {
		r.Mark()
	}
	clk.advance(time.Second)
	rates := r.CompletedRates()
	if len(rates) != 2 || rates[0] != 10 || rates[1] != 20 {
		t.Fatalf("rates = %v", rates)
	}
	// The in-progress interval is not reported.
	r.Mark()
	if got := r.CompletedRates(); len(got) != 2 {
		t.Fatalf("in-progress interval leaked: %v", got)
	}
}

func TestMarketMonitorSnapshotAndWarnings(t *testing.T) {
	cat := market.TestbedCatalog(1, 24)
	m := NewMarketMonitor(cat)
	snap := m.Snapshot(3)
	if len(snap) != cat.Len() {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i, s := range snap {
		want := cat.Markets[i].PerRequestCostAt(3)
		if s.PerReqCost != want {
			t.Fatalf("per-request cost mismatch: %v vs %v", s.PerReqCost, want)
		}
	}
	w := Warning{ServerID: 5, Market: 1, Deadline: time.Now().Add(2 * time.Minute)}
	m.RelayWarning(w)
	if log := m.Warnings(); len(log) != 1 || log[0].ServerID != 5 {
		t.Fatalf("warning log = %+v", log)
	}
}

func TestAPIEndpoints(t *testing.T) {
	cat := market.TestbedCatalog(1, 24)
	clk := newFakeClock()
	col := NewCollector(time.Minute)
	col.SetClock(clk.now)
	col.Record(10*time.Millisecond, false)
	mm := NewMarketMonitor(cat)
	mm.RelayWarning(Warning{ServerID: 1, Market: 0})
	api := &API{
		Collector: col,
		Markets:   mm,
		Portfolio: func() map[int]float64 { return map[int]float64{0: 0.7, 2: 0.3} },
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 1<<16)
		n, _ := resp.Body.Read(buf)
		return resp, buf[:n]
	}

	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, body := get("/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if st.Samples != 1 {
		t.Fatalf("stats = %+v", st)
	}

	resp, body = get("/markets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("markets = %d", resp.StatusCode)
	}
	var snaps []MarketSnapshot
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatalf("markets json: %v", err)
	}
	if len(snaps) != cat.Len() {
		t.Fatalf("markets len = %d", len(snaps))
	}

	if resp, _ := get("/markets?t=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad t = %d", resp.StatusCode)
	}
	resp, body = get("/portfolio")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("portfolio = %d", resp.StatusCode)
	}
	var pf map[string]float64
	if err := json.Unmarshal(body, &pf); err != nil || pf["0"] != 0.7 {
		t.Fatalf("portfolio json: %v %v", pf, err)
	}
	resp, body = get("/warnings")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warnings = %d", resp.StatusCode)
	}
	var warns []Warning
	if err := json.Unmarshal(body, &warns); err != nil || len(warns) != 1 {
		t.Fatalf("warnings json: %v %v", warns, err)
	}
}

func TestAPIMissingComponents(t *testing.T) {
	srv := httptest.NewServer((&API{}).Handler())
	defer srv.Close()
	for _, path := range []string{"/stats", "/markets", "/warnings", "/portfolio"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestLifetimeGauges(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(time.Second) // tiny window: lifetime must outlive it
	c.SetClock(clk.now)
	for i := 1; i <= 200; i++ {
		c.Record(time.Duration(i)*time.Millisecond, false)
		clk.advance(50 * time.Millisecond)
	}
	c.Record(0, true)
	life := c.Lifetime()
	if life.Served != 200 || life.Dropped != 1 {
		t.Fatalf("lifetime counts = %+v", life)
	}
	// Sliding window has expired most samples; lifetime has not.
	if st := c.Snapshot(); st.Samples >= 200 {
		t.Fatalf("window did not expire: %d", st.Samples)
	}
	if life.P50 < 0.05 || life.P50 > 0.15 {
		t.Fatalf("lifetime p50 = %v, want ≈0.1", life.P50)
	}
	if life.P99 < life.P50 {
		t.Fatal("p99 < p50")
	}
}
