package cluster

import (
	"math"
	"testing"
)

func TestStoppedServerHoldsNoCapacity(t *testing.T) {
	c := New(0.1, 0.5)
	s := c.Launch(0, 100, 0)
	c.Advance(1) // past boot and warm-up: running at full capacity
	if got := s.EffectiveCapacity(1); got != 100 {
		t.Fatalf("running capacity = %v, want 100", got)
	}
	if !c.StopPreserve(s.ID, 1, 0) {
		t.Fatal("StopPreserve failed")
	}
	if s.State() != StateStopped {
		t.Fatalf("state = %v, want stopped", s.State())
	}
	if got := s.EffectiveCapacity(1.5); got != 0 {
		t.Fatalf("stopped capacity = %v, want 0", got)
	}
	// Stopped servers survive Advance (they are parked, not terminated), but
	// stay invisible to market counts and revocation warnings.
	c.Advance(2)
	if len(c.Servers()) != 1 || len(c.AppendStopped(nil)) != 1 {
		t.Fatalf("stopped server reaped: %d servers, %d stopped",
			len(c.Servers()), len(c.AppendStopped(nil)))
	}
	counts := []int{-1}
	c.CountByMarketInto(counts)
	if counts[0] != 0 {
		t.Fatalf("stopped server counted toward market: %v", counts)
	}
	if c.RevokeWarning(s.ID, 2, 0.1) != nil {
		t.Fatal("stopped servers must not be revocable")
	}
}

func TestStopPreserveDrainsThenParks(t *testing.T) {
	c := New(0.1, 0.5)
	s := c.Launch(0, 100, 0)
	c.Advance(1)
	// Graceful stop: serves through the grace window, then parks instead of
	// terminating.
	c.StopPreserve(s.ID, 1, 0.5)
	if s.State() != StateDraining {
		t.Fatalf("state = %v, want draining", s.State())
	}
	if got := s.EffectiveCapacity(1.2); got != 100 {
		t.Fatalf("draining capacity = %v, want 100", got)
	}
	c.Advance(1.6)
	if s.State() != StateStopped {
		t.Fatalf("state after grace = %v, want stopped", s.State())
	}
}

func TestRestartSkipsWarmup(t *testing.T) {
	const boot, warmup = 0.1, 0.5
	c := New(boot, warmup)

	// Cold launch: at readyAt the server serves only the cold fraction and
	// ramps to full capacity over the warm-up window.
	cold := c.Launch(0, 100, 0)
	atReady := 0 + boot + 1e-9
	c.Advance(atReady)
	if got := cold.EffectiveCapacity(atReady); got >= 100*0.5 {
		t.Fatalf("cold server at readyAt serves %v, want a cold fraction well below full", got)
	}
	c.Advance(boot + warmup)
	if got := cold.EffectiveCapacity(boot + warmup); got != 100 {
		t.Fatalf("cold server after warm-up serves %v, want 100", got)
	}

	// Warm restart: full capacity the moment the boot delay elapses.
	sb := c.LaunchStopped(0, 100, 0)
	rs := c.Restart(sb.ID, 1)
	if rs == nil || rs.State() != StateStarting {
		t.Fatal("Restart must boot a stopped server")
	}
	atRestartReady := 1 + boot + 1e-9
	c.Advance(atRestartReady)
	if got := rs.EffectiveCapacity(atRestartReady); got != 100 {
		t.Fatalf("restarted server at readyAt serves %v, want 100 (no warm-up ramp)", got)
	}
	// Billing re-bases: the stop window is not charged.
	if math.Abs(rs.LaunchedAt()-1) > 1e-12 {
		t.Fatalf("LaunchedAt = %v, want re-based to restart time 1", rs.LaunchedAt())
	}
	// Restart only applies to stopped servers.
	if c.Restart(sb.ID, 2) != nil {
		t.Fatal("Restart of a non-stopped server must fail")
	}
}

func TestScaleToPreserveRestartsAndParks(t *testing.T) {
	c := New(0, 0)
	c.Preserve = []bool{true}
	caps := []float64{100}

	// Deficit with a stopped standby available: restart it, no cold launch.
	c.LaunchStopped(0, 100, 0)
	started, stopped, restarted := c.ScaleTo([]int{1}, caps, 1)
	if started != 0 || stopped != 0 || restarted != 1 {
		t.Fatalf("ScaleTo = (%d, %d, %d), want (0, 0, 1)", started, stopped, restarted)
	}
	c.Advance(2)

	// Surplus in a preserve market: parked, not terminated.
	started, stopped, restarted = c.ScaleTo([]int{0}, caps, 2)
	if started != 0 || stopped != 1 || restarted != 0 {
		t.Fatalf("ScaleTo = (%d, %d, %d), want (0, 1, 0)", started, stopped, restarted)
	}
	c.Advance(3)
	if len(c.AppendStopped(nil)) != 1 {
		t.Fatalf("surplus must be preserved, stopped pool = %d", len(c.AppendStopped(nil)))
	}

	// Non-preserve markets keep the terminate semantics.
	c2 := New(0, 0)
	c2.Launch(0, 100, 0)
	c2.Advance(1)
	c2.ScaleTo([]int{0}, caps, 1)
	c2.Advance(2)
	if len(c2.AppendStopped(nil)) != 0 || len(c2.Servers()) != 0 {
		t.Fatalf("non-preserve surplus must terminate: %d stopped, %d alive",
			len(c2.AppendStopped(nil)), len(c2.Servers()))
	}
}
