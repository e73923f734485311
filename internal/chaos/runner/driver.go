package runner

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// TestbedOptions configures a wall-clock scenario run against the in-process
// testbed (real sockets, real concurrency, compressed time). Unlike the
// simulator path this is not deterministic — it exists to exercise the same
// fault timeline against the production code path.
type TestbedOptions struct {
	// Scenario is the fault plan (required).
	Scenario *chaos.Scenario
	// Seed drives scenario compilation.
	Seed int64
	// Duration is the compressed run length (default 3s).
	Duration time.Duration
}

// TestbedSummary is the outcome of a testbed scenario run.
type TestbedSummary struct {
	Scenario     string           `json:"scenario"`
	Seed         int64            `json:"seed"`
	Served       int              `json:"served"`
	Dropped      int              `json:"dropped"`
	DropFraction float64          `json:"drop_fraction"`
	Revocations  int              `json:"revocations"`
	EventCounts  map[string]int64 `json:"event_counts"`
}

const (
	testbedMarkets     = 3
	testbedPerMarket   = 2
	testbedCapacity    = 120.0
	testbedRate        = 240.0 // offered load, req/s
	testbedWarning     = 300 * time.Millisecond
	testbedStartDelay  = 150 * time.Millisecond
	testbedFaultPeriod = 20 * time.Millisecond
)

// RunTestbed replays a scenario on the wall clock: the compiled fault
// timeline is mapped onto the run duration, revocations go through
// Cluster.RevokeWithWarning (warning-loss faults shorten the warning),
// slowdown/flap windows inflate backend service times, and force_action
// windows override the balancer's revocation decision. The event journal
// records the lifecycle exactly as in production.
func RunTestbed(opt TestbedOptions) (*TestbedSummary, error) {
	if opt.Scenario == nil {
		return nil, fmt.Errorf("runner: Scenario is required")
	}
	if opt.Duration <= 0 {
		opt.Duration = 3 * time.Second
	}
	in, err := chaos.Compile(opt.Scenario, opt.Seed, testbedMarkets)
	if err != nil {
		return nil, err
	}

	j := metrics.NewJournal(8192)
	drv := NewFaultDriver(in, opt.Duration, testbedWarning, testbedRate)
	c := testbed.NewCluster(testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			Capacity:        testbedCapacity,
			BaseServiceTime: 2 * time.Millisecond,
			StartDelay:      testbedStartDelay,
			WarmupDur:       100 * time.Millisecond,
		},
		Warning:        testbedWarning,
		Journal:        j,
		ActionOverride: drv.Hook(),
	})
	defer c.Close()
	for mkt := 0; mkt < testbedMarkets; mkt++ {
		for k := 0; k < testbedPerMarket; k++ {
			c.AddBackendForMarket(mkt, testbedCapacity)
		}
	}
	// Let the initial fleet boot before the clock starts.
	time.Sleep(testbedStartDelay + 50*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	rec := testbed.NewRecorder()
	go func() {
		defer cancel()
		testbed.LoadGen(c, testbedRate, opt.Duration, 32, rec)
	}()
	drv.Run(ctx, c)

	served, dropped := rec.Totals()
	sum := &TestbedSummary{
		Scenario:    opt.Scenario.Name,
		Seed:        opt.Seed,
		Served:      served,
		Dropped:     dropped,
		Revocations: drv.Revoked(),
		EventCounts: j.Counts(),
	}
	if total := served + dropped; total > 0 {
		sum.DropFraction = float64(dropped) / float64(total)
	}
	return sum, nil
}

// testbedVictims maps a compiled revocation onto live backend ids: every
// live backend of each market chaos.Revocation.Victims picks, in ID order.
func testbedVictims(c *testbed.Cluster, rv chaos.Revocation) []int {
	byMarket := map[int][]int{}
	markets := 0
	for id, mkt := range c.Snapshot() {
		byMarket[mkt] = append(byMarket[mkt], id)
		markets = max(markets, mkt+1)
	}
	live := make([]int, markets)
	for mkt := range live {
		live[mkt] = len(byMarket[mkt])
	}
	var ids []int
	for _, mkt := range rv.Victims(nil, live) {
		ids = append(ids, byMarket[mkt]...)
	}
	sort.Ints(ids)
	return ids
}
