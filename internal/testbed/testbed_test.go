package testbed

import (
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func fastBackendCfg() BackendConfig {
	return BackendConfig{
		Capacity:        200,
		BaseServiceTime: 2 * time.Millisecond,
		StartDelay:      0,
		WarmupDur:       0,
	}
}

// soloBackend launches one backend of capacity cfg.Capacity on a cluster of
// its own, closed when the test ends.
func soloBackend(t *testing.T, cfg BackendConfig) *Backend {
	c := NewCluster(ClusterConfig{Backend: cfg, Warning: time.Second})
	t.Cleanup(c.Close)
	return c.AddBackend(cfg.Capacity)
}

func TestBackendServes(t *testing.T) {
	b := soloBackend(t, fastBackendCfg())
	resp, err := http.Get(b.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(body) != "ok from 0\n" {
		t.Fatalf("body = %q", body)
	}
}

func TestBackendBootDelay(t *testing.T) {
	cfg := fastBackendCfg()
	cfg.StartDelay = 300 * time.Millisecond
	b := soloBackend(t, cfg)
	resp, err := http.Get(b.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("booting backend should 503, got %d", resp.StatusCode)
	}
	time.Sleep(350 * time.Millisecond)
	resp, err = http.Get(b.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("booted backend should 200, got %d", resp.StatusCode)
	}
}

func TestBackendWarmupSlowsService(t *testing.T) {
	cfg := fastBackendCfg()
	cfg.BaseServiceTime = 20 * time.Millisecond
	cfg.WarmupDur = 500 * time.Millisecond
	b := soloBackend(t, cfg)
	timeGet := func() time.Duration {
		start := time.Now()
		resp, err := http.Get(b.URL())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return time.Since(start)
	}
	cold := timeGet()
	time.Sleep(600 * time.Millisecond)
	warm := timeGet()
	// Cold service ≈ 20 ms / 0.4 (internal/cluster's cold factor) = 50 ms, warm ≈ 20 ms.
	if cold < 2*warm {
		t.Fatalf("cold %v should be well above warm %v", cold, warm)
	}
}

func TestBackendTerminate(t *testing.T) {
	b := soloBackend(t, fastBackendCfg())
	b.terminate()
	b.terminate() // idempotent
	if _, err := http.Get(b.URL()); err == nil {
		t.Fatal("terminated backend should refuse connections")
	}
}

func TestRecorderWindows(t *testing.T) {
	r := NewRecorder()
	r.Record(100*time.Millisecond, false)
	r.Record(200*time.Millisecond, true)
	lats, drops := r.Window(0, time.Second)
	if len(lats) != 1 || drops != 1 {
		t.Fatalf("window = %v/%d", lats, drops)
	}
	served, dropped := r.Totals()
	if served != 1 || dropped != 1 {
		t.Fatalf("totals = %d/%d", served, dropped)
	}
	if lats, drops = r.Window(time.Hour, 2*time.Hour); len(lats) != 0 || drops != 0 {
		t.Fatal("out-of-window samples returned")
	}
}

func TestClusterRoutesAcrossBackends(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: time.Second, Metrics: reg})
	defer c.Close()
	b1 := c.AddBackend(100)
	b2 := c.AddBackend(100)
	proxied := func(b *Backend) int64 {
		return reg.Counter("spotweb_backend_requests_total", "",
			metrics.L("backend", metrics.Itoa(b.ID)), metrics.L("market", "-1")).Value()
	}
	rec := NewRecorder()
	LoadGen(c, 200, 500*time.Millisecond, 0, rec)
	served, dropped := rec.Totals()
	// Open-loop tickers shed ticks under CPU contention (parallel test
	// packages), so the floor is deliberately conservative.
	if served < 15 {
		t.Fatalf("served = %d, want ≥ 15", served)
	}
	if dropped > served/10 {
		t.Fatalf("dropped = %d of %d", dropped, served)
	}
	if proxied(b1) == 0 || proxied(b2) == 0 {
		t.Fatalf("load not spread: %d/%d", proxied(b1), proxied(b2))
	}
}

func TestClusterTransiencyAwareRevocation(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Backend: fastBackendCfg(),
		Warning: 400 * time.Millisecond,
	})
	defer c.Close()
	c.AddBackend(150)
	victim := c.AddBackend(150)

	rec := NewRecorder()
	done := make(chan struct{})
	go func() {
		LoadGen(c, 100, 1200*time.Millisecond, 20, rec)
		close(done)
	}()
	time.Sleep(300 * time.Millisecond)
	c.Revoke([]int{victim.ID}, 100)
	<-done

	served, dropped := rec.Totals()
	if served == 0 {
		t.Fatal("nothing served")
	}
	dropFrac := float64(dropped) / float64(served+dropped)
	if dropFrac > 0.02 {
		t.Fatalf("transiency-aware drop fraction %v, want ≈0 (dropped %d of %d)",
			dropFrac, dropped, served+dropped)
	}
}

func TestClusterVanillaDropsOnRevocation(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Backend:    fastBackendCfg(),
		Warning:    200 * time.Millisecond,
		Vanilla:    true,
		FailDetect: 1 << 30, // never detect: worst-case vanilla
	})
	defer c.Close()
	c.AddBackend(150)
	victim := c.AddBackend(150)

	rec := NewRecorder()
	done := make(chan struct{})
	go func() {
		LoadGen(c, 150, 1200*time.Millisecond, 20, rec)
		close(done)
	}()
	time.Sleep(250 * time.Millisecond)
	c.Revoke([]int{victim.ID}, 150)
	<-done

	_, dropped := rec.Totals()
	if dropped == 0 {
		t.Fatal("vanilla balancer should drop requests routed to the dead backend")
	}
	// Drops happen after termination (warning expiry), not before.
	_, before := rec.Window(0, 400*time.Millisecond)
	_, after := rec.Window(500*time.Millisecond, 1200*time.Millisecond)
	if after <= before {
		t.Fatalf("drops should concentrate after termination: before=%d after=%d", before, after)
	}
}

func TestVanillaHealthCheckEventuallyDetects(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Backend:    fastBackendCfg(),
		Warning:    100 * time.Millisecond,
		Vanilla:    true,
		FailDetect: 5,
	})
	defer c.Close()
	c.AddBackend(150)
	victim := c.AddBackend(150)
	c.Revoke([]int{victim.ID}, 50)
	time.Sleep(150 * time.Millisecond) // victim now dead

	rec := NewRecorder()
	LoadGen(c, 100, 800*time.Millisecond, 0, rec)
	served, dropped := rec.Totals()
	if served == 0 {
		t.Fatal("nothing served")
	}
	// Early requests fail until the health check trips, then traffic
	// flows to the survivor only.
	if dropped == 0 {
		t.Fatal("expected some drops before detection")
	}
	_, lateDrops := rec.Window(500*time.Millisecond, 800*time.Millisecond)
	if lateDrops > 2 {
		t.Fatalf("health check failed to remove dead backend: %d late drops", lateDrops)
	}
}

func TestReplacementStartedOnHighUtilization(t *testing.T) {
	cfg := fastBackendCfg()
	cfg.StartDelay = 100 * time.Millisecond
	c := NewCluster(ClusterConfig{Backend: cfg, Warning: 300 * time.Millisecond})
	defer c.Close()
	c.AddBackend(100)
	victim := c.AddBackend(100)
	// Offered 180 req/s on a surviving 100 req/s ⇒ utilization 1.8 ⇒
	// reprovision.
	c.Revoke([]int{victim.ID}, 180)
	c.mu.Lock()
	n := len(c.backends)
	c.mu.Unlock()
	if n != 3 {
		t.Fatalf("expected a replacement backend, have %d", n)
	}
}

func TestLatencyDistributionSane(t *testing.T) {
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: time.Second})
	defer c.Close()
	c.AddBackend(200)
	rec := NewRecorder()
	LoadGen(c, 100, 400*time.Millisecond, 0, rec)
	lats, _ := rec.Window(0, time.Second)
	if len(lats) < 20 {
		t.Fatalf("too few samples: %d", len(lats))
	}
	s := stats.Summarize(lats)
	if s.Median <= 0 || s.Median > 0.25 {
		t.Fatalf("median latency %v implausible", s.Median)
	}
}
