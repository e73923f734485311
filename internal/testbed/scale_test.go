package testbed

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/risk"
)

func TestAddBackendForMarketAndCounts(t *testing.T) {
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: 100 * time.Millisecond})
	defer c.Close()
	c.AddBackendForMarket(0, 100)
	c.AddBackendForMarket(0, 100)
	c.AddBackendForMarket(2, 50)
	counts := c.MarketCounts(3)
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	snap := c.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestScaleToLaunchesAndDrains(t *testing.T) {
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: 80 * time.Millisecond})
	defer c.Close()
	caps := []float64{100, 50}
	started, stopped := c.ScaleTo([]int{2, 1}, caps)
	if started != 3 || stopped != 0 {
		t.Fatalf("started/stopped = %d/%d", started, stopped)
	}
	if counts := c.MarketCounts(2); counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// Scale down: surplus drains (out of counts immediately) and
	// terminates after the warning.
	started, stopped = c.ScaleTo([]int{1, 1}, caps)
	if started != 0 || stopped != 1 {
		t.Fatalf("scale-down started/stopped = %d/%d", started, stopped)
	}
	if counts := c.MarketCounts(2); counts[0] != 1 {
		t.Fatalf("draining backend still counted: %v", counts)
	}
	time.Sleep(150 * time.Millisecond)
	// The drained backend is terminated; routing still works.
	rec := NewRecorder()
	LoadGen(c, 100, 200*time.Millisecond, 0, rec)
	served, dropped := rec.Totals()
	if served == 0 || dropped > served/20 {
		t.Fatalf("post-drain serving broken: %d served, %d dropped", served, dropped)
	}
}

func TestScaleToIdempotent(t *testing.T) {
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: 50 * time.Millisecond})
	defer c.Close()
	caps := []float64{100}
	c.ScaleTo([]int{3}, caps)
	started, stopped := c.ScaleTo([]int{3}, caps)
	if started != 0 || stopped != 0 {
		t.Fatalf("idempotent reconcile changed fleet: %d/%d", started, stopped)
	}
}

func TestOnRequestHook(t *testing.T) {
	var drops, serves atomic.Int64
	cfg := ClusterConfig{
		Backend: fastBackendCfg(),
		Warning: time.Second,
		OnRequest: func(_ time.Duration, dropped bool) {
			if dropped {
				drops.Add(1)
			} else {
				serves.Add(1)
			}
		},
	}
	c := NewCluster(cfg)
	defer c.Close()
	// No backends yet: requests drop.
	rec := NewRecorder()
	LoadGen(c, 50, 60*time.Millisecond, 0, rec)
	if drops.Load() == 0 {
		t.Fatal("hook missed the dropped requests")
	}
	c.AddBackend(100)
	LoadGen(c, 50, 100*time.Millisecond, 0, rec)
	if serves.Load() == 0 {
		t.Fatal("hook missed served requests")
	}
}

// bootingCfg boots each backend for 50 ms before it may join rotation.
func bootingCfg() BackendConfig {
	cfg := fastBackendCfg()
	cfg.StartDelay = 50 * time.Millisecond
	return cfg
}

// routesTo counts how many of n anonymous routes land on backend id.
func routesTo(c *Cluster, id, n int) int {
	hits := 0
	for i := 0; i < n; i++ {
		if got, ok := c.balancer.Route(""); ok && got == id {
			hits++
		}
	}
	return hits
}

func TestScaleToDrainsBootingBackend(t *testing.T) {
	c := NewCluster(ClusterConfig{Backend: bootingCfg(), Warning: 2 * time.Second})
	defer c.Close()
	caps := []float64{100}
	if started, _ := c.ScaleTo([]int{1}, caps); started != 1 {
		t.Fatalf("started = %d, want 1", started)
	}
	if _, stopped := c.ScaleTo([]int{0}, caps); stopped != 1 {
		t.Fatalf("stopped = %d, want 1", stopped)
	}
	if counts := c.MarketCounts(1); counts[0] != 0 {
		t.Fatalf("counts = %v right after the drain, want [0]", counts)
	}
	time.Sleep(150 * time.Millisecond) // boot ends, warning still running
	if n := routesTo(c, 0, 100); n != 0 {
		t.Fatalf("drained backend took %d of 100 routes after its boot", n)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot = %v, want empty", snap)
	}
	if started, stopped := c.ScaleTo([]int{0}, caps); started != 0 || stopped != 0 {
		t.Fatalf("second ScaleTo started/stopped = %d/%d, want 0/0", started, stopped)
	}
}

func TestRevokeBootingBackend(t *testing.T) {
	c := NewCluster(ClusterConfig{Backend: bootingCfg(), Warning: 2 * time.Second})
	defer c.Close()
	c.AddBackend(200)
	time.Sleep(100 * time.Millisecond) // the survivor is up
	victim := c.AddBackend(100)
	// Offered rate 0: the survivor absorbs everything, a redistribute.
	c.Revoke([]int{victim.ID}, 0)
	time.Sleep(100 * time.Millisecond) // the victim's boot ends
	if n := routesTo(c, victim.ID, 100); n != 0 {
		t.Fatalf("revoked backend took %d of 100 routes after its boot", n)
	}
	if _, ok := c.Snapshot()[victim.ID]; ok {
		t.Fatalf("snapshot %v still holds revoked backend %d", c.Snapshot(), victim.ID)
	}
}

func TestScaleToDrainsYoungestFirst(t *testing.T) {
	caps := []float64{100}
	for rep := 0; rep < 20; rep++ {
		c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: 10 * time.Millisecond})
		c.ScaleTo([]int{3}, caps)
		c.ScaleTo([]int{2}, caps)
		snap := c.Snapshot()
		c.Close()
		if _, ok := snap[2]; ok || len(snap) != 2 {
			t.Fatalf("repetition %d: snapshot %v after 3 → 2, want backend 2 drained", rep, snap)
		}
	}
}

// TestClusterFeedsRiskWithoutJournal: the control plane tells the risk
// estimator of each warning it delivers whether or not a journal records it.
// This is the cluster `spotwebd -risk -metrics=false` builds (no journal, no
// registry), whose estimator once fed on the journal and planned from priors
// only. A revoked market's published probability rises above that of an
// estimator that saw the same exposure and no warning.
func TestClusterFeedsRiskWithoutJournal(t *testing.T) {
	cat := market.TestbedCatalog(1, 24)
	est, control := risk.New(risk.Config{}, cat), risk.New(risk.Config{}, cat)
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: 100 * time.Millisecond, Risk: est})
	defer c.Close()
	victim := c.AddBackendForMarket(0, 100)
	c.AddBackendForMarket(1, 100)
	c.Revoke([]int{victim.ID}, 10)
	exposed := []bool{true, true, false}
	est.ObserveInterval(0, exposed, nil)
	control.ObserveInterval(0, exposed, nil)
	declared := cat.Markets[0].FailProbAt(0)
	if got, want := est.Overlay().FailProbAt(0, declared), control.Overlay().FailProbAt(0, declared); !(got > want) {
		t.Fatalf("revoked market's estimate %v, want above %v: the warning never reached the estimator", got, want)
	}
}
