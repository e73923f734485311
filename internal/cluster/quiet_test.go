package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullAdvance and fullTotalCapacity are the reference the quiet-stretch
// bookkeeping is held to: every server ticked, every booted and every
// terminated one reported (in ID order), the terminated ones reaped, and every
// capacity re-added, on every call.
func fullAdvance(c *Cluster, now float64) (ready, reaped []int) {
	alive := c.servers[:0]
	for _, s := range c.servers {
		booting := s.state == StateStarting
		s.advance(now)
		if booting && s.state != StateStarting && s.state != StateTerminated {
			ready = append(ready, s.ID)
		}
		if s.state == StateTerminated {
			reaped = append(reaped, s.ID)
			continue
		}
		alive = append(alive, s)
	}
	c.servers = alive
	return ready, reaped
}

// changesBy reports whether a full scan of a copy of c at time at moves any
// server to another state.
func changesBy(c *Cluster, at float64) bool {
	for _, s := range c.servers {
		cp := *s
		cp.advance(at)
		if cp.state != s.state {
			return true
		}
	}
	return false
}

// copies maps each live server's ID to a copy of it.
func copies(c *Cluster) map[int]Server {
	m := make(map[int]Server, len(c.servers))
	for _, s := range c.servers {
		m[s.ID] = *s
	}
	return m
}

func fullTotalCapacity(c *Cluster, now float64) float64 {
	var sum float64
	for _, s := range c.servers {
		sum += s.EffectiveCapacity(now)
	}
	return sum
}

// TestQuietClusterMatchesFullScan drives a cluster and a twin through the same
// random operation sequences at non-decreasing times and holds the cluster's
// Advance and TotalCapacity to full scans of the twin: equal live IDs and
// states, equal reaped IDs, capacities equal bit for bit. Every duration is a
// multiple of 0.25 and the warm-up (1.5) spans several steps, so times land
// exactly on readyAt, warmAt and terminateAt as well as inside warm-up ramps.
// Capacity is also queried between an operation and the next Advance, as the
// simulator does when it sizes a revocation decision.
//
// The same sequences hold the lifecycle laws every caller relies on:
//   - Next never lies: a full scan of the twin changes no state strictly
//     before Next and changes one at it (none at all when Next is +Inf),
//     whether or not a mutation happened since the last Advance;
//   - a server drained, revoked or stopped while it was still booting never
//     reports ready, unless it is restarted.
func TestQuietClusterMatchesFullScan(t *testing.T) {
	caps := []float64{100, 70, 45}
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c, twin := New(1, 1.5), New(1, 1.5)
		if trial%2 == 1 {
			c.Preserve = []bool{true, false, true}
			twin.Preserve = c.Preserve
		}
		check := func(step int, what string, now float64) {
			t.Helper()
			a, b := c.Servers(), twin.servers
			if len(a) != len(b) {
				t.Fatalf("trial %d step %d %s at %v: %d live servers, want %d", trial, step, what, now, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID || a[i].state != b[i].state {
					t.Fatalf("trial %d step %d %s at %v: server %d is #%d %v, want #%d %v",
						trial, step, what, now, i, a[i].ID, a[i].state, b[i].ID, b[i].state)
				}
			}
			got, want := c.TotalCapacity(now), fullTotalCapacity(twin, now)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d %s: TotalCapacity(%v) = %v (%#x), want %v (%#x)",
					trial, step, what, now, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			next := c.Next()
			if math.IsInf(next, 1) {
				if changesBy(twin, math.MaxFloat64) {
					t.Fatalf("trial %d step %d %s: Next = +Inf, but a state is still pending", trial, step, what)
				}
			} else if changesBy(twin, math.Nextafter(next, math.Inf(-1))) || !changesBy(twin, next) {
				t.Fatalf("trial %d step %d %s: Next = %v is not the first state change", trial, step, what, next)
			}
		}
		// noReady holds the servers a drain, a revocation or a stop reached
		// while they booted (their state or their terminateAt moved); a
		// restart takes a server out again.
		noReady := map[int]bool{}
		last := 0.0
		for step := 0; step < 80; step++ {
			now := last + 0.25*float64(rng.Intn(5))
			at := last
			for k := rng.Intn(3); k > 0; k-- {
				at += 0.25 * float64(rng.Intn(int((now-at)/0.25)+1))
				before := copies(c)
				randomOp(t, rng, c, twin, caps, at)
				for _, s := range c.servers {
					switch was, ok := before[s.ID]; {
					case ok && was.state == StateStarting && (s.state != StateStarting || s.terminateAt != was.terminateAt):
						noReady[s.ID] = true
					case was.state == StateStopped && s.state == StateStarting:
						delete(noReady, s.ID)
					}
				}
				if rng.Intn(2) == 0 {
					check(step, "before Advance", now)
				}
			}
			ready, reaped := c.Advance(now)
			wantReady, wantReaped := fullAdvance(twin, now)
			if fmt.Sprint(ready, reaped) != fmt.Sprint(wantReady, wantReaped) {
				t.Fatalf("trial %d step %d: Advance(%v) reported ready %v, reaped %v; want %v, %v",
					trial, step, now, ready, reaped, wantReady, wantReaped)
			}
			for _, id := range ready {
				if noReady[id] {
					t.Fatalf("trial %d step %d: server %d reported ready at %v after a drain, revocation or stop reached it while booting", trial, step, id, now)
				}
			}
			check(step, "after Advance", now)
			last = now
		}
	}
}

// randomOp applies one random mutation at time at to both fleets and checks
// that they answer alike.
func randomOp(t *testing.T, rng *rand.Rand, c, twin *Cluster, caps []float64, at float64) {
	t.Helper()
	mkt := rng.Intn(len(caps))
	id := 999 // unknown to both fleets
	if n := len(c.servers); n > 0 && rng.Intn(8) != 0 {
		id = c.servers[rng.Intn(n)].ID
	}
	grace := 0.25 * float64(rng.Intn(5))
	switch rng.Intn(9) {
	case 0, 1:
		a, b := c.Launch(mkt, caps[mkt], at), twin.Launch(mkt, caps[mkt], at)
		if a.ID != b.ID {
			t.Fatalf("Launch: ID %d, twin %d", a.ID, b.ID)
		}
	case 2:
		c.LaunchStopped(mkt, caps[mkt], at)
		twin.LaunchStopped(mkt, caps[mkt], at)
	case 3:
		if (c.Restart(id, at) == nil) != (twin.Restart(id, at) == nil) {
			t.Fatalf("Restart(%d) disagrees with the twin", id)
		}
	case 4:
		if c.StopPreserve(id, at, grace) != twin.StopPreserve(id, at, grace) {
			t.Fatalf("StopPreserve(%d) disagrees with the twin", id)
		}
	case 5, 6:
		if (c.RevokeWarning(id, at, grace) == nil) != (twin.RevokeWarning(id, at, grace) == nil) {
			t.Fatalf("RevokeWarning(%d) disagrees with the twin", id)
		}
	case 7:
		targets := make([]int, len(caps))
		for m := range targets {
			targets[m] = rng.Intn(4)
		}
		s1, p1, r1 := c.ScaleTo(targets, caps, at)
		s2, p2, r2 := twin.ScaleTo(targets, caps, at)
		if s1 != s2 || p1 != p2 || r1 != r2 {
			t.Fatalf("ScaleTo(%v) = (%d, %d, %d), twin (%d, %d, %d)", targets, s1, p1, r1, s2, p2, r2)
		}
	case 8:
		// The simulator stretches the boot time of later launches under
		// start-delay jitter.
		d := 0.5 + 0.25*float64(rng.Intn(3))
		c.StartDelay, twin.StartDelay = d, d
	}
}
