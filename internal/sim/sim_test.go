package sim

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// fixedPolicy always returns the same counts.
type fixedPolicy struct {
	counts []int
	name   string
}

func (p *fixedPolicy) Name() string { return p.name }
func (p *fixedPolicy) Decide(int, float64) ([]int, error) {
	out := make([]int, len(p.counts))
	copy(out, p.counts)
	return out, nil
}

func flatWorkload(n int, rate float64) *trace.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rate
	}
	return &trace.Series{Name: "flat", StepHrs: 1, Values: vals}
}

// noFailCatalog builds a catalog whose transient markets never fail.
func noFailCatalog(hours int) *market.Catalog {
	cat := market.TestbedCatalog(1, hours)
	for _, m := range cat.Markets {
		for i := range m.FailProb.Values {
			m.FailProb.Values[i] = 0
		}
	}
	return cat
}

func TestSimNoFailuresNoDrops(t *testing.T) {
	cat := noFailCatalog(48)
	// m4.xlarge serves 100 req/s; 4 servers handle 300 req/s comfortably.
	pol := &fixedPolicy{counts: []int{4, 0, 0}, name: "fixed"}
	s := &Simulator{
		Cfg:      Config{Seed: 1, TransiencyAware: true},
		Cat:      cat,
		Workload: flatWorkload(48, 300),
		Policy:   pol,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations != 0 {
		t.Fatalf("revocations = %d, want 0", res.Revocations)
	}
	if f := res.DropFraction(); f > 0.01 {
		t.Fatalf("drop fraction %v without failures", f)
	}
	if res.TotalCost <= 0 {
		t.Fatal("no cost accounted")
	}
	if res.MeanLatency <= 0 || res.MeanLatency > 1 {
		t.Fatalf("mean latency %v implausible", res.MeanLatency)
	}
}

func TestSimUnderProvisionedDrops(t *testing.T) {
	cat := noFailCatalog(24)
	pol := &fixedPolicy{counts: []int{1, 0, 0}, name: "tiny"} // 100 req/s cap
	s := &Simulator{
		Cfg:      Config{Seed: 1, TransiencyAware: true},
		Cat:      cat,
		Workload: flatWorkload(24, 300),
		Policy:   pol,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Offered 300, capacity 100 ⇒ ~2/3 dropped.
	if f := res.DropFraction(); f < 0.5 || f > 0.75 {
		t.Fatalf("drop fraction = %v, want ≈0.66", f)
	}
	if res.ViolationPct < 50 {
		t.Fatalf("violations %v%% too low for overload", res.ViolationPct)
	}
}

func TestSimRevocationsSampled(t *testing.T) {
	cat := market.TestbedCatalog(2, 24*14)
	// Crank failure probability to make revocations certain to appear.
	for _, m := range cat.Markets {
		for i := range m.FailProb.Values {
			m.FailProb.Values[i] = 0.3
		}
	}
	pol := &fixedPolicy{counts: []int{2, 2, 2}, name: "testbed"}
	s := &Simulator{
		Cfg:      Config{Seed: 3, TransiencyAware: true},
		Cat:      cat,
		Workload: flatWorkload(24*14, 400),
		Policy:   pol,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations == 0 {
		t.Fatal("expected revocations with f=0.3 over two weeks")
	}
	// The policy keeps re-requesting servers, so launches must exceed the
	// initial fleet.
	if res.Launches <= 6 {
		t.Fatalf("launches = %d, want replacements beyond initial 6", res.Launches)
	}
}

// The §6.1 comparison: under identical revocation schedules, the vanilla
// balancer drops a large share of requests while the transiency-aware one
// keeps drops near zero (moderate utilization case).
func TestTransiencyAwareBeatsVanilla(t *testing.T) {
	mkSim := func(aware bool) *Result {
		cat := market.TestbedCatalog(4, 24*7)
		for _, m := range cat.Markets {
			for i := range m.FailProb.Values {
				m.FailProb.Values[i] = 0.15
			}
		}
		pol := &fixedPolicy{counts: []int{2, 2, 2}, name: "testbed"}
		s := &Simulator{
			Cfg:      Config{Seed: 7, TransiencyAware: aware, WarningSec: 120},
			Cat:      cat,
			Workload: flatWorkload(24*7, 600), // ~65% utilization of 920 cap
			Policy:   pol,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aware := mkSim(true)
	vanilla := mkSim(false)
	if aware.Revocations == 0 || vanilla.Revocations == 0 {
		t.Fatalf("revocations: aware %d vanilla %d", aware.Revocations, vanilla.Revocations)
	}
	if aware.DropFraction() >= vanilla.DropFraction() {
		t.Fatalf("aware drops %v should beat vanilla %v",
			aware.DropFraction(), vanilla.DropFraction())
	}
	if vanilla.DropFraction() < 0.001 {
		t.Fatalf("vanilla should visibly drop requests, got %v", vanilla.DropFraction())
	}
}

func TestSimPolicyErrors(t *testing.T) {
	cat := noFailCatalog(4)
	s := &Simulator{
		Cfg:      Config{},
		Cat:      cat,
		Workload: flatWorkload(4, 100),
		Policy:   &badPolicy{},
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("expected policy error to propagate")
	}
	s.Policy = &wrongLenPolicy{}
	if _, err := s.Run(); err == nil {
		t.Fatal("expected count-length error")
	}
	s.Policy = &fixedPolicy{counts: []int{1, 0, 0}}
	s.Workload = flatWorkload(1, 100)
	if _, err := s.Run(); err == nil {
		t.Fatal("expected short-workload error")
	}
}

type badPolicy struct{}

func (badPolicy) Name() string                       { return "bad" }
func (badPolicy) Decide(int, float64) ([]int, error) { return nil, errBoom }

type wrongLenPolicy struct{}

func (wrongLenPolicy) Name() string                       { return "wrong" }
func (wrongLenPolicy) Decide(int, float64) ([]int, error) { return []int{1}, nil }

var errBoom = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestSimDeterminism(t *testing.T) {
	run := func() *Result {
		cat := market.TestbedCatalog(5, 24*3)
		pol := &fixedPolicy{counts: []int{2, 1, 1}, name: "d"}
		s := &Simulator{
			Cfg:      Config{Seed: 11, TransiencyAware: true},
			Cat:      cat,
			Workload: flatWorkload(24*3, 300),
			Policy:   pol,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalCost != b.TotalCost || a.Revocations != b.Revocations ||
		math.Abs(a.Served-b.Served) > 1e-9 {
		t.Fatal("simulation must be deterministic for a fixed seed")
	}
}

func TestIntervalMetricsShape(t *testing.T) {
	cat := noFailCatalog(6)
	pol := &fixedPolicy{counts: []int{2, 0, 0}, name: "m"}
	s := &Simulator{
		Cfg: Config{Seed: 1, TransiencyAware: true}, Cat: cat,
		Workload: flatWorkload(6, 150), Policy: pol,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != 5 { // n-1 simulated intervals
		t.Fatalf("intervals = %d", len(res.Intervals))
	}
	for _, im := range res.Intervals {
		if im.Capacity <= 0 || im.Cost <= 0 || len(im.Counts) != 3 {
			t.Fatalf("interval metrics malformed: %+v", im)
		}
		if im.Violations < 0 || im.Violations > 1 {
			t.Fatalf("violation fraction %v out of range", im.Violations)
		}
	}
}

func TestNormCDF(t *testing.T) {
	if math.Abs(normCDF(0)-0.5) > 1e-12 {
		t.Fatalf("normCDF(0) = %v", normCDF(0))
	}
	if math.Abs(normCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("normCDF(1.96) = %v", normCDF(1.96))
	}
	if normCDF(-10) > 1e-12 || normCDF(10) < 1-1e-12 {
		t.Fatal("tails wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.WarningSec != 120 || c.SubSteps != 60 {
		t.Fatalf("defaults = %+v", c)
	}
}
