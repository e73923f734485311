// Package cluster models the front-end server fleet: VM lifecycle
// (starting → warming → running → draining → terminated), start-up delays,
// cold-cache warm-up ramps, per-server effective capacity, and the queueing
// latency model the simulator uses to translate utilization into response
// times and drops. Time is an abstract float64; the simulator uses hours and
// the tests use whatever is convenient.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// State is a server lifecycle state.
type State int

const (
	// StateStarting — VM requested, not yet booted.
	StateStarting State = iota
	// StateWarming — booted but cache-cold; serves at reduced capacity.
	StateWarming
	// StateRunning — fully operational.
	StateRunning
	// StateDraining — revocation warning received; sessions migrating away.
	StateDraining
	// StateTerminated — gone.
	StateTerminated
	// StateStopped — shut down but not deallocated: disks and memory image
	// (warm caches) preserved, no capacity, no billing. A stopped server can
	// be Restarted, which skips the cache warm-up window — the sentinel
	// restart-vs-recreate recovery path.
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateWarming:
		return "warming"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateTerminated:
		return "terminated"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Server is one VM in the front-end tier. Its exported fields are fixed at
// launch: the owning Cluster caches sums over them between mutations.
type Server struct {
	ID     int
	Market int // catalog index of the market this server was bought in
	// Capacity is the steady-state request rate (req/s) the server handles
	// within SLO (r_i).
	Capacity float64
	// ColdFactor is the fraction of capacity available at the start of the
	// warm-up window (Memcached cold-cache effect); ramps linearly to 1.
	ColdFactor float64

	state State
	// launchedAt is when the VM was requested; readyAt = launchedAt +
	// startDelay; warmAt = readyAt + warmup.
	launchedAt, readyAt, warmAt float64
	// terminateAt is set when draining (readyAt + warning) or on stop.
	terminateAt float64
	// preserveOnStop makes a draining server transition to StateStopped
	// instead of StateTerminated when the drain expires (sentinel standby).
	preserveOnStop bool
}

// State returns the lifecycle state as of the last Advance.
func (s *Server) State() State { return s.state }

// LaunchedAt returns the time the VM was requested (billing starts here).
func (s *Server) LaunchedAt() float64 { return s.launchedAt }

// advance moves the server state machine to time now.
func (s *Server) advance(now float64) {
	switch s.state {
	case StateStarting:
		if now >= s.readyAt {
			s.state = StateWarming
		}
		if s.state == StateWarming && now >= s.warmAt {
			s.state = StateRunning
		}
	case StateWarming:
		if now >= s.warmAt {
			s.state = StateRunning
		}
	case StateDraining:
		if now >= s.terminateAt {
			if s.preserveOnStop {
				s.state = StateStopped
			} else {
				s.state = StateTerminated
			}
		}
	}
}

// EffectiveCapacity returns the req/s the server can serve at time now,
// accounting for boot, warm-up ramp and draining.
func (s *Server) EffectiveCapacity(now float64) float64 {
	switch s.state {
	case StateStarting, StateTerminated, StateStopped:
		return 0
	case StateDraining:
		// A draining server still serves until termination.
		if now >= s.terminateAt {
			return 0
		}
		return s.Capacity
	}
	if now >= s.warmAt {
		return s.Capacity
	}
	if now <= s.readyAt || s.warmAt <= s.readyAt {
		return s.Capacity * s.ColdFactor
	}
	frac := (now - s.readyAt) / (s.warmAt - s.readyAt)
	return s.Capacity * (s.ColdFactor + (1-s.ColdFactor)*frac)
}

// Cluster is a set of servers plus launch-parameter defaults.
type Cluster struct {
	// StartDelay is the VM boot time; WarmupDur the cache warm-up window;
	// ColdFactor the initial capacity fraction during warm-up.
	StartDelay float64
	WarmupDur  float64
	ColdFactor float64
	// Preserve, when non-nil, marks markets whose surplus servers ScaleTo
	// stops-and-preserves (drain → StateStopped) instead of terminating, and
	// whose deficits are covered by restarting stopped servers before cold
	// launches — the sentinel standby pool.
	Preserve []bool

	servers []*Server
	nextID  int
	// countScratch, stoppedScratch and victimScratch back ScaleTo's
	// per-market census, restart candidates and surplus victims, so the
	// per-interval reconcile path does not allocate.
	countScratch   []int
	stoppedScratch []*Server
	victimScratch  []*Server

	// Quiet-stretch bookkeeping. A full Advance pass at time from records
	// until, the earliest pending readyAt/warmAt/terminateAt, and ramping,
	// whether a server is inside its warm-up ramp. Every mutator clears clean
	// and bumps mutations. While the fleet is clean and from ≤ now < until no
	// server can change state and, unless one is ramping, none can change its
	// effective capacity: Advance returns at once and TotalCapacity returns
	// capSum (valid when capOK), the sum it added up at the first call.
	clean       bool
	ramping     bool
	capOK       bool
	from, until float64
	capSum      float64
	mutations   uint64
}

// New creates a cluster with the given launch parameters.
func New(startDelay, warmupDur, coldFactor float64) *Cluster {
	if coldFactor <= 0 || coldFactor > 1 {
		coldFactor = 0.4
	}
	return &Cluster{StartDelay: startDelay, WarmupDur: warmupDur, ColdFactor: coldFactor}
}

// Launch requests a new server in the given market.
func (c *Cluster) Launch(mkt int, capacity, now float64) *Server {
	s := &Server{
		ID: c.nextID, Market: mkt, Capacity: capacity, ColdFactor: c.ColdFactor,
		state: StateStarting, launchedAt: now,
		readyAt: now + c.StartDelay, warmAt: now + c.StartDelay + c.WarmupDur,
	}
	c.nextID++
	c.servers = append(c.servers, s)
	c.touch()
	return s
}

// touch records a mutation: the next Advance and TotalCapacity rescan.
func (c *Cluster) touch() {
	c.clean, c.capOK = false, false
	c.mutations++
}

// Mutations counts the calls that changed the fleet other than by the passage
// of time (launches, restarts, stops, warnings). Between two equal readings
// no server was added or restarted, and servers left their states only
// through Advance.
func (c *Cluster) Mutations() uint64 { return c.mutations }

// LaunchStopped creates a pre-provisioned standby server directly in
// StateStopped: hydrated (caches warm from a prior image) but shut down —
// zero capacity and, in the simulator, zero billing until restarted.
func (c *Cluster) LaunchStopped(mkt int, capacity, now float64) *Server {
	s := &Server{
		ID: c.nextID, Market: mkt, Capacity: capacity, ColdFactor: c.ColdFactor,
		state: StateStopped, launchedAt: now, terminateAt: now,
	}
	c.nextID++
	c.servers = append(c.servers, s)
	c.touch()
	return s
}

// StopPreserve shuts a server down without deallocating it: it drains for
// grace (still serving) and then parks in StateStopped with its warm caches
// preserved, ready for Restart. grace = 0 stops immediately.
func (c *Cluster) StopPreserve(id int, now, grace float64) bool {
	for _, s := range c.servers {
		if s.ID != id || s.state == StateTerminated || s.state == StateStopped {
			continue
		}
		c.touch()
		if grace <= 0 {
			s.state = StateStopped
			s.terminateAt = now
			return true
		}
		s.state = StateDraining
		s.terminateAt = now + grace
		s.preserveOnStop = true
		return true
	}
	return false
}

// Restart boots a stopped server back up. The VM image (and its caches) were
// preserved across the stop, so the server skips the cache warm-up window
// entirely: it serves at full capacity as soon as the boot delay elapses —
// the sentinel restart-vs-recreate gap. Billing restarts at now. Returns nil
// if the server is not stopped.
func (c *Cluster) Restart(id int, now float64) *Server {
	for _, s := range c.servers {
		if s.ID == id && s.state == StateStopped {
			s.state = StateStarting
			s.launchedAt = now
			s.readyAt = now + c.StartDelay
			s.warmAt = s.readyAt // warm caches: no warm-up ramp
			s.preserveOnStop = false
			c.touch()
			return s
		}
	}
	return nil
}

// StopGraceful drains a server: it keeps serving until now + grace and then
// terminates — the make-before-break used when the portfolio shifts markets,
// so replacement servers boot and warm up while the old ones still serve.
func (c *Cluster) StopGraceful(id int, now, grace float64) bool {
	return c.RevokeWarning(id, now, grace) != nil
}

// RevokeWarning marks a server as draining: it keeps serving for the
// warning period and terminates at now + warning. Stopped servers hold no
// capacity and cannot drain.
func (c *Cluster) RevokeWarning(id int, now, warning float64) *Server {
	for _, s := range c.servers {
		if s.ID == id && s.state != StateTerminated && s.state != StateStopped {
			s.state = StateDraining
			s.terminateAt = now + warning
			c.touch()
			return s
		}
	}
	return nil
}

// Advance ticks every server's state machine to time now, reaps terminated
// servers and appends their IDs, in ID order, to reaped (usually a reused
// scratch slice), which it returns. When no mutation happened since the last
// full pass and now is before the earliest pending readyAt, warmAt or
// terminateAt, no transition can fire and nothing is left to reap, so it
// returns at once.
func (c *Cluster) Advance(now float64, reaped []int) []int {
	if c.clean && now < c.until {
		return reaped
	}
	until, ramping := math.Inf(1), false
	alive := c.servers[:0]
	for _, s := range c.servers {
		s.advance(now)
		next := math.Inf(1) // running and stopped servers wait on no deadline
		switch s.state {
		case StateTerminated:
			reaped = append(reaped, s.ID)
			continue
		case StateStarting:
			next = s.readyAt
		case StateWarming:
			next, ramping = s.warmAt, true
		case StateDraining:
			next = s.terminateAt
		}
		if next < until {
			until = next
		}
		alive = append(alive, s)
	}
	c.servers = alive
	c.clean, c.capOK = true, false
	c.from, c.until, c.ramping = now, until, ramping
	return reaped
}

// Servers returns the live servers (all states except terminated). The slice
// is the cluster's own: callers read it and must not modify it.
func (c *Cluster) Servers() []*Server { return c.servers }

// TotalCapacity returns the summed effective capacity at time now. Inside a
// quiet stretch with no server ramping up, every server's effective capacity
// is constant, so the sum added up at the stretch's first call is returned
// as is — the same additions in the same order, hence the same bits.
func (c *Cluster) TotalCapacity(now float64) float64 {
	quiet := now < c.until && now >= c.from
	if c.capOK && quiet {
		return c.capSum
	}
	var sum float64
	for _, s := range c.servers {
		sum += s.EffectiveCapacity(now)
	}
	if c.clean && !c.ramping && quiet {
		c.capSum, c.capOK = sum, true
	}
	return sum
}

// CountByMarketInto writes live (non-draining, non-stopped) server counts per
// market index into out (len(out) markets), for hot paths that must not
// allocate per interval.
func (c *Cluster) CountByMarketInto(out []int) {
	for i := range out {
		out[i] = 0
	}
	for _, s := range c.servers {
		if s.state == StateDraining || s.state == StateTerminated || s.state == StateStopped {
			continue
		}
		if s.Market >= 0 && s.Market < len(out) {
			out[s.Market]++
		}
	}
}

// CountInMarket returns the number of non-draining, non-stopped servers in a
// market without materializing them. The simulator queries this for every
// transient market every interval, so it must not allocate.
func (c *Cluster) CountInMarket(mkt int) int {
	n := 0
	for _, s := range c.servers {
		if s.Market == mkt && s.state != StateDraining && s.state != StateTerminated &&
			s.state != StateStopped {
			n++
		}
	}
	return n
}

// AppendServersInMarket appends the non-draining, non-stopped servers bought
// in a market to dst (usually a reused scratch slice) and returns it.
func (c *Cluster) AppendServersInMarket(dst []*Server, mkt int) []*Server {
	for _, s := range c.servers {
		if s.Market == mkt && s.state != StateDraining && s.state != StateTerminated &&
			s.state != StateStopped {
			dst = append(dst, s)
		}
	}
	return dst
}

// AppendStopped appends the stopped (restartable) servers in ID order to dst
// (usually a reused scratch slice) and returns it.
func (c *Cluster) AppendStopped(dst []*Server) []*Server {
	for _, s := range c.servers {
		if s.state == StateStopped {
			dst = append(dst, s)
		}
	}
	return dst
}

// ScaleTo reconciles the cluster toward the target per-market counts:
// launching where short, draining the youngest surplus servers where long
// (youngest first keeps warmed-up caches alive). Surplus servers are stopped
// gracefully with a grace of StartDelay + WarmupDur — make-before-break, so
// a portfolio shift never drops capacity before replacements are warm.
// Draining and stopped servers do not count toward targets.
//
// Markets marked in Preserve get sentinel semantics: deficits restart
// stopped servers (lowest ID first — warm caches, no warm-up window) before
// cold-launching, and surpluses are stopped-and-preserved instead of
// terminated, keeping a standby pool for the next storm. It returns the
// numbers cold-launched, stopped and warm-restarted.
func (c *Cluster) ScaleTo(targets []int, capacities []float64, now float64) (started, stopped, restarted int) {
	grace := c.StartDelay + c.WarmupDur
	if cap(c.countScratch) < len(targets) {
		c.countScratch = make([]int, len(targets))
	}
	current := c.countScratch[:len(targets)]
	c.CountByMarketInto(current)
	for mkt, want := range targets {
		preserve := c.Preserve != nil && mkt < len(c.Preserve) && c.Preserve[mkt]
		have := current[mkt]
		if preserve && have < want {
			c.stoppedScratch = c.AppendStopped(c.stoppedScratch[:0])
			for _, s := range c.stoppedScratch {
				if have >= want {
					break
				}
				if s.Market == mkt && c.Restart(s.ID, now) != nil {
					restarted++
					have++
				}
			}
		}
		for ; have < want; have++ {
			c.Launch(mkt, capacities[mkt], now)
			started++
		}
		if have > want {
			victims := c.AppendServersInMarket(c.victimScratch[:0], mkt)
			c.victimScratch = victims
			// Stop youngest first. Servers launched at one scaleAt tie on
			// launchedAt, so the victims depend on sort.Slice's order.
			sort.Slice(victims, func(i, j int) bool {
				return victims[i].launchedAt > victims[j].launchedAt
			})
			for k := 0; k < have-want && k < len(victims); k++ {
				if preserve {
					c.StopPreserve(victims[k].ID, now, grace)
				} else {
					c.StopGraceful(victims[k].ID, now, grace)
				}
				stopped++
			}
		}
	}
	return started, stopped, restarted
}

// LatencyModel converts utilization into response times using an M/M/1
// processor-sharing approximation: T(ρ) = S/(1−ρ) for ρ < 1, capped at
// MaxLatency. The capacities quoted in the market catalog are *SLO
// capacities* — the paper defines r_i as the rate a server handles "with no
// SLA violations" — so the physical saturation rate lies above them: serving
// exactly at SLO capacity yields a response time of exactly SLOTarget, and
// load beyond the saturation rate is dropped.
type LatencyModel struct {
	// BaseServiceTime is the zero-load response time in seconds (paper's
	// MediaWiki testbed averages < 0.5 s; default 0.1 s).
	BaseServiceTime float64
	// MaxLatency caps the modeled response time (queue timeout), seconds.
	MaxLatency float64
	// SLOTarget is the latency at which a server running exactly at its
	// quoted (SLO) capacity responds (default 1 s, the paper's 99%-ile SLO).
	SLOTarget float64
}

// DefaultLatencyModel mirrors the paper's testbed application.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{BaseServiceTime: 0.1, MaxLatency: 5, SLOTarget: 1}
}

// ResponseTime returns the modeled response time at physical utilization
// rho (fraction of the saturation rate).
func (m LatencyModel) ResponseTime(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return m.MaxLatency
	}
	t := m.BaseServiceTime / (1 - rho)
	return math.Min(t, m.MaxLatency)
}

// saturation converts an SLO capacity into the physical saturation rate:
// T(ρ) = SLOTarget at ρ = 1 − S/SLOTarget, so r_sat = r_slo / (1 − S/SLO).
func (m LatencyModel) saturation(sloCapacity float64) float64 {
	if m.SLOTarget <= m.BaseServiceTime {
		return sloCapacity
	}
	return sloCapacity / (1 - m.BaseServiceTime/m.SLOTarget)
}

// Interval evaluates one interval of fluid load against an SLO capacity:
// returns the served rate, dropped rate, and mean response time of served
// requests. Load up to the saturation rate is served (at SLO-violating
// latency once beyond the SLO capacity); the rest is dropped.
func (m LatencyModel) Interval(offered, sloCapacity float64) (served, dropped, meanLatency float64) {
	if sloCapacity <= 0 {
		return 0, offered, m.MaxLatency
	}
	sat := m.saturation(sloCapacity)
	served = math.Min(offered, sat)
	dropped = offered - served
	rho := served / sat
	// Keep rho off the asymptote: a fully loaded fluid server sits at the
	// latency cap rather than infinity.
	if rho > 0.999 {
		rho = 0.999
	}
	return served, dropped, m.ResponseTime(rho)
}
