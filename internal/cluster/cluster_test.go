package cluster

import (
	"math"
	"testing"
)

func TestServerLifecycle(t *testing.T) {
	c := New(60, 30, 0.4) // 60 s boot, 30 s warm-up
	s := c.Launch(0, 100, 0)
	if s.State() != StateStarting {
		t.Fatalf("state = %v", s.State())
	}
	if cap := s.EffectiveCapacity(30); cap != 0 {
		t.Fatalf("starting server capacity = %v, want 0", cap)
	}
	s.advance(60)
	if s.State() != StateWarming {
		t.Fatalf("state at 60 = %v", s.State())
	}
	// At boot completion: cold factor applies.
	if cap := s.EffectiveCapacity(60); math.Abs(cap-40) > 1e-9 {
		t.Fatalf("cold capacity = %v, want 40", cap)
	}
	// Mid warm-up: linear ramp.
	if cap := s.EffectiveCapacity(75); math.Abs(cap-70) > 1e-9 {
		t.Fatalf("ramp capacity = %v, want 70", cap)
	}
	s.advance(90)
	if s.State() != StateRunning {
		t.Fatalf("state at 90 = %v", s.State())
	}
	if cap := s.EffectiveCapacity(90); cap != 100 {
		t.Fatalf("warm capacity = %v", cap)
	}
}

func TestStartingSkipsToRunningWhenLate(t *testing.T) {
	c := New(10, 5, 0.5)
	s := c.Launch(0, 100, 0)
	s.advance(100) // long past warmAt
	if s.State() != StateRunning {
		t.Fatalf("state = %v, want running", s.State())
	}
}

func TestRevocationDraining(t *testing.T) {
	c := New(0, 0, 0.4)
	s := c.Launch(1, 200, 0)
	c.Advance(1, nil)
	if s.State() != StateRunning {
		t.Fatalf("state = %v", s.State())
	}
	got := c.RevokeWarning(s.ID, 10, 120)
	if got == nil || got.State() != StateDraining {
		t.Fatal("RevokeWarning failed")
	}
	// Still serving during the warning period.
	if cap := s.EffectiveCapacity(60); cap != 200 {
		t.Fatalf("draining capacity = %v, want 200", cap)
	}
	if cap := s.EffectiveCapacity(131); cap != 0 {
		t.Fatalf("post-termination capacity = %v, want 0", cap)
	}
	c.Advance(131, nil)
	if len(c.Servers()) != 0 {
		t.Fatal("terminated server not reaped")
	}
	if c.RevokeWarning(s.ID, 140, 10) != nil {
		t.Fatal("revoking a terminated server should return nil")
	}
}

func TestTotalCapacityAndActive(t *testing.T) {
	c := New(10, 0, 0.4)
	c.Launch(0, 100, 0)
	c.Launch(1, 50, 0)
	c.Advance(10, nil)
	if got := c.TotalCapacity(10); got != 150 {
		t.Fatalf("TotalCapacity = %v", got)
	}
	// Before boot completes nothing serves.
	c2 := New(10, 0, 0.4)
	c2.Launch(0, 100, 0)
	if got := c2.TotalCapacity(5); got != 0 {
		t.Fatalf("TotalCapacity before boot = %v", got)
	}
}

func TestCountByMarketExcludesDraining(t *testing.T) {
	c := New(0, 0, 0.4)
	a := c.Launch(0, 100, 0)
	c.Launch(0, 100, 0)
	c.Launch(1, 50, 0)
	c.Advance(1, nil)
	c.RevokeWarning(a.ID, 1, 60)
	counts := []int{-1, -1}
	c.CountByMarketInto(counts)
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts = %v, want [1 1]", counts)
	}
}

func TestScaleToLaunchesAndStops(t *testing.T) {
	c := New(0, 0, 0.4)
	caps := []float64{100, 50}
	started, stopped, _ := c.ScaleTo([]int{2, 1}, caps, 0)
	if started != 3 || stopped != 0 {
		t.Fatalf("started/stopped = %d/%d", started, stopped)
	}
	c.Advance(1, nil)
	// Scale market 0 down to 1.
	started, stopped, _ = c.ScaleTo([]int{1, 1}, caps, 1)
	if started != 0 || stopped != 1 {
		t.Fatalf("started/stopped = %d/%d", started, stopped)
	}
	c.Advance(2, nil)
	counts := make([]int, 2)
	c.CountByMarketInto(counts)
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestScaleToStopsYoungestFirst(t *testing.T) {
	c := New(0, 0, 0.4)
	caps := []float64{100}
	old := c.Launch(0, 100, 0)
	c.Advance(1, nil)
	young := c.Launch(0, 100, 5)
	c.Advance(6, nil)
	c.ScaleTo([]int{1}, caps, 10)
	c.Advance(10, nil)
	if len(c.Servers()) != 1 || c.Servers()[0].ID != old.ID {
		t.Fatalf("should keep the old (warm) server, kept %d, want %d (young %d)",
			c.Servers()[0].ID, old.ID, young.ID)
	}
}

func TestLatencyModel(t *testing.T) {
	m := DefaultLatencyModel()
	if rt := m.ResponseTime(0); rt != 0.1 {
		t.Fatalf("zero-load latency = %v", rt)
	}
	if rt := m.ResponseTime(0.9); math.Abs(rt-1.0) > 1e-9 {
		t.Fatalf("rho=0.9 latency = %v, want 1.0", rt)
	}
	if rt := m.ResponseTime(1.5); rt != m.MaxLatency {
		t.Fatalf("overload latency = %v", rt)
	}
	if rt := m.ResponseTime(-1); rt != 0.1 {
		t.Fatalf("negative rho latency = %v", rt)
	}
	// Monotonicity.
	prev := 0.0
	for rho := 0.0; rho < 1; rho += 0.05 {
		rt := m.ResponseTime(rho)
		if rt < prev {
			t.Fatalf("latency not monotone at rho=%v", rho)
		}
		prev = rt
	}
}

func TestLatencyAtSLOCapacityMeetsSLO(t *testing.T) {
	// Serving exactly at the quoted (SLO) capacity must yield exactly the
	// SLO latency — the paper's definition of r_i.
	m := DefaultLatencyModel()
	_, _, lat := m.Interval(200, 200)
	if math.Abs(lat-m.SLOTarget) > 1e-9 {
		t.Fatalf("latency at SLO capacity = %v, want %v", lat, m.SLOTarget)
	}
	// 80% of SLO capacity must be comfortably under the SLO.
	_, _, lat = m.Interval(160, 200)
	if lat >= m.SLOTarget {
		t.Fatalf("latency at 80%% = %v, should be under SLO", lat)
	}
}

func TestLatencyInterval(t *testing.T) {
	m := DefaultLatencyModel()
	served, dropped, lat := m.Interval(100, 200)
	if served != 100 || dropped != 0 {
		t.Fatalf("served/dropped = %v/%v", served, dropped)
	}
	if lat <= m.BaseServiceTime || lat > m.MaxLatency {
		t.Fatalf("latency = %v out of range", lat)
	}
	// Saturation rate for SLO capacity 200 is 200/0.9 ≈ 222: offered load
	// beyond it is dropped and latency pegs at the cap.
	sat := m.saturation(200)
	if math.Abs(sat-200/0.9) > 1e-9 {
		t.Fatalf("saturation = %v, want %v", sat, 200/0.9)
	}
	served, dropped, lat = m.Interval(300, 200)
	if math.Abs(served-sat) > 1e-9 || math.Abs(dropped-(300-sat)) > 1e-9 {
		t.Fatalf("overload served/dropped = %v/%v", served, dropped)
	}
	if lat != m.MaxLatency {
		t.Fatalf("overload latency = %v, want cap", lat)
	}
	served, dropped, lat = m.Interval(100, 0)
	if served != 0 || dropped != 100 || lat != m.MaxLatency {
		t.Fatalf("zero-capacity case broken: %v/%v/%v", served, dropped, lat)
	}
	// Degenerate SLO target: saturation equals quoted capacity.
	deg := LatencyModel{BaseServiceTime: 0.1, MaxLatency: 5, SLOTarget: 0.05}
	if deg.saturation(100) != 100 {
		t.Fatalf("degenerate saturation = %v", deg.saturation(100))
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateStarting: "starting", StateWarming: "warming", StateRunning: "running",
		StateDraining: "draining", StateTerminated: "terminated", State(99): "state(99)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("State(%d).String() = %q", int(s), s.String())
		}
	}
}

func TestColdFactorDefault(t *testing.T) {
	c := New(0, 0, 0)
	if c.ColdFactor != 0.4 {
		t.Fatalf("default cold factor = %v", c.ColdFactor)
	}
	c2 := New(0, 0, 2)
	if c2.ColdFactor != 0.4 {
		t.Fatalf("out-of-range cold factor not defaulted: %v", c2.ColdFactor)
	}
}
