package runner

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/lb"
	"repro/internal/testbed"
)

// FaultDriver maps a compiled injector's fault timeline onto wall-clock time
// against a live testbed cluster. It is the shared machinery behind the
// spotweb-chaos -testbed mode and the daemons' -chaos-scenario flag:
// slowdown/flap windows inflate backend service times, revocations go
// through Cluster.RevokeWithWarning with the fault's (possibly shortened)
// warning, and force_action windows override the balancer's revocation
// decision via Hook.
type FaultDriver struct {
	in       *chaos.Injector
	duration time.Duration
	warning  time.Duration
	rate     float64
	start    atomic.Int64 // unix nanos of the run start; 0 = not started
	revoked  atomic.Int64
}

// NewFaultDriver prepares a driver that plays the injector's timeline over
// the given wall-clock duration. warning is the natural revocation warning
// the cluster uses; rate is the offered load assumed for revocation
// decisions.
func NewFaultDriver(in *chaos.Injector, duration, warning time.Duration, rate float64) *FaultDriver {
	if duration <= 0 {
		duration = 3 * time.Second
	}
	if rate <= 0 {
		rate = 240
	}
	return &FaultDriver{in: in, duration: duration, warning: warning, rate: rate}
}

// Progress reports the normalized scenario time in [0, 1]: 0 before Run
// starts, 1 once the mapped window has elapsed.
func (d *FaultDriver) Progress() float64 {
	s := d.start.Load()
	if s == 0 {
		return 0
	}
	x := float64(time.Now().UnixNano()-s) / float64(d.duration)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Hook adapts the injector's force_action windows to the balancer's
// ActionOverride field. Safe to install before Run starts (progress is then
// 0, outside every window unless one starts at 0).
func (d *FaultDriver) Hook() func() (lb.RevocationAction, bool) {
	return d.in.BalancerHook(d.Progress)
}

// Revoked returns how many backends the timeline has revoked so far.
func (d *FaultDriver) Revoked() int { return int(d.revoked.Load()) }

// Run starts the scenario clock and applies the timeline to the cluster
// until ctx is canceled. Revocations land on the cluster's current fleet:
// explicit market targets hit every live backend in those markets, Count
// storms hit the most-populated live markets (chaos.Revocation.Victims, the
// simulator's rule too).
func (d *FaultDriver) Run(ctx context.Context, c *testbed.Cluster) {
	if d.in == nil {
		return
	}
	d.start.Store(time.Now().UnixNano())
	tick := time.NewTicker(testbedFaultPeriod)
	defer tick.Stop()
	prevX := 0.0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			x := d.Progress()
			// Slowdown/flap: a capacity factor f < 1 becomes a service-time
			// inflation of 1/f on every backend.
			if f := d.in.CapacityFactor(x); f < 1 {
				c.SetSlowdown(1 / f)
			} else {
				c.SetSlowdown(1)
			}
			for _, rv := range d.in.Revocations(prevX, x) {
				ids := testbedVictims(c, rv)
				if len(ids) == 0 {
					continue
				}
				warning := time.Duration(float64(d.warning) * rv.WarnScale * d.in.WarnScale(x))
				c.RevokeWithWarning(ids, d.rate, warning)
				d.revoked.Add(int64(len(ids)))
			}
			prevX = x
		}
	}
}
