package lb

import (
	"sort"
	"sync"

	"repro/internal/metrics"
)

// RevocationAction is the load balancer's response to a revocation warning
// (§6.1's three scenarios).
type RevocationAction int

const (
	// ActionRedistribute — utilization is low/medium: migrate sessions to
	// the remaining servers; no SLO impact.
	ActionRedistribute RevocationAction = iota
	// ActionReprovision — utilization is high but replacements can start
	// within the warning period: start new servers, then migrate.
	ActionReprovision
	// ActionAdmissionControl — utilization is high and replacements cannot
	// start in time: migrate what fits and drop/delay the excess to protect
	// the remaining servers.
	ActionAdmissionControl
)

// String implements fmt.Stringer.
func (a RevocationAction) String() string {
	switch a {
	case ActionRedistribute:
		return "redistribute"
	case ActionReprovision:
		return "reprovision"
	default:
		return "admission_control"
	}
}

// DecideRevocation applies the paper's decision procedure. utilization is
// the cluster-wide utilization after losing the revoked capacity (served
// load / remaining capacity); highUtil is the threshold above which the
// remaining servers cannot absorb the load (paper keeps the testbed between
// 70 and 95%); startDelay and warning are in the same time unit.
func DecideRevocation(utilization, highUtil, startDelay, warning float64) RevocationAction {
	if utilization <= highUtil {
		return ActionRedistribute
	}
	if startDelay < warning {
		return ActionReprovision
	}
	return ActionAdmissionControl
}

// Balancer is the transiency-aware load balancer: smooth WRR routing with
// portfolio-driven weights, sticky sessions, revocation-warning handling and
// admission control. The Vanilla flag disables all transiency awareness,
// reproducing the unmodified-HAProxy baseline (keeps routing to revoked
// servers until they disappear). It is safe for concurrent use.
type Balancer struct {
	// HighUtil is the utilization threshold for the revocation decision.
	HighUtil float64
	// Vanilla disables transiency awareness.
	Vanilla bool
	// Journal, when set, records the drain lifecycle: action chosen,
	// sessions migrated, drain completed.
	Journal *metrics.Journal
	// ActionOverride, when set, can force HandleWarning's decision (the
	// chaos fault-injection hook); ok = false keeps the normal one.
	ActionOverride func() (RevocationAction, bool)

	// admit, when set, rate-limits Route (token-bucket admission control).
	admit *TokenBucket
	// Route outcome counters; nil (no-op) when metrics are off.
	routed, sticky, dropped, rejected *metrics.Counter

	mu       sync.Mutex
	ents     []entry        // ascending id
	sessions map[string]int // sticky session → backend
}

// NewBalancer returns a transiency-aware balancer with the paper's defaults.
func NewBalancer() *Balancer {
	return &Balancer{HighUtil: 0.85, sessions: make(map[string]int)}
}

// SetAdmission installs (or, with nil, removes) the token-bucket admission
// limiter applied to every Route call.
func (b *Balancer) SetAdmission(tb *TokenBucket) { b.admit = tb }

// SetMetrics registers spotweb_lb_route_total{result} and
// spotweb_lb_sticky_hits_total with r before serving; nil disables them.
func (b *Balancer) SetMetrics(r *metrics.Registry) {
	const help = "Routing decisions by the LB data plane."
	b.routed = r.Counter("spotweb_lb_route_total", help, metrics.L("result", "ok"))
	b.dropped = r.Counter("spotweb_lb_route_total", help, metrics.L("result", "dropped"))
	b.rejected = r.Counter("spotweb_lb_route_total", help, metrics.L("result", "admission_rejected"))
	b.sticky = r.Counter("spotweb_lb_sticky_hits_total", "Requests routed to their existing session binding.")
}

// Route picks a backend for a request; ok is false when it must be dropped.
// A sticky session is honored while its backend stays registered and not
// hard-draining, at any weight: a weight-0 backend keeps the sessions bound
// to it. Hard-draining backends never receive requests. Soft-draining ones
// (high-utilization revocations, §4.4) keep their sessions and take
// sessionless traffic — the hot survivors could not absorb it early — but
// are never assigned new sessions.
func (b *Balancer) Route(session string) (backend int, ok bool) {
	if !b.admit.Allow() {
		b.rejected.Inc()
		return 0, false
	}
	b.mu.Lock()
	backend, ok, hit := b.routeLocked(session)
	b.mu.Unlock()
	if hit {
		b.sticky.Inc()
	}
	if ok {
		b.routed.Inc()
	} else {
		b.dropped.Inc()
	}
	return backend, ok
}

func (b *Balancer) routeLocked(session string) (backend int, ok, hit bool) {
	view := viewLive
	if session != "" {
		// Existing sessions stay put unless the backend is hard-drained or
		// out of rotation (vanilla keeps using even revoked backends).
		if cur, found := b.sessions[session]; found {
			if i, reg := b.findLocked(cur); b.Vanilla || reg && !b.ents[i].hard {
				return cur, true, true
			}
		}
		view = viewOpen
	}
	if b.Vanilla {
		view = viewAll
	}
	backend, ok = b.nextLocked(view)
	if ok && session != "" {
		b.sessions[session] = backend
	}
	return backend, ok, false
}

// EndSession unbinds a session; its next request is placed afresh.
func (b *Balancer) EndSession(session string) {
	b.mu.Lock()
	delete(b.sessions, session)
	b.mu.Unlock()
}

// SessionCount returns the number of bound sessions.
func (b *Balancer) SessionCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

// HandleWarning processes a revocation warning for a backend: decides the
// action from the utilization, marks the backend draining, migrates its
// sessions when the survivors can take them, and returns the action and the
// number migrated. Vanilla ignores warnings (ActionAdmissionControl, 0).
func (b *Balancer) HandleWarning(backend int, utilization, startDelay, warning float64) (RevocationAction, int) {
	if b.Vanilla {
		return ActionAdmissionControl, 0
	}
	action := DecideRevocation(utilization, b.HighUtil, startDelay, warning)
	if b.ActionOverride != nil {
		if forced, ok := b.ActionOverride(); ok {
			action = forced
		}
	}
	// Redistribute: the survivors absorb the load now (hard drain).
	// Otherwise they are hot: the backend keeps its sessions while
	// replacements boot (soft drain) until MigrateOff or CompleteDrain.
	migrated := 0
	b.mu.Lock()
	b.markLocked(backend, action == ActionRedistribute)
	if action == ActionRedistribute {
		migrated = b.migrateLocked(backend)
	}
	b.mu.Unlock()
	b.Journal.Record(metrics.EvDrainStart, backend, -1, action.String())
	b.recordMigrated(backend, migrated)
	return action, migrated
}

// Retire takes a backend the operator chose to stop out of rotation and
// returns the number of sessions moved off it: a voluntary scale-down, which
// is not a revocation, so neither the revocation decision nor its override
// applies, and a vanilla balancer, which ignores warnings, retires it too.
// The backend's sessions move to the backends that take new ones, drain_start
// is journaled (as a redistribute: the survivors absorb the load) and
// CompleteDrain ends the drain when the backend stops. A transiency-aware
// balancer hard-drains the backend; a vanilla one, whose views ignore drain
// marks, drops it.
func (b *Balancer) Retire(backend int) int {
	b.mu.Lock()
	if b.Vanilla {
		b.removeLocked(backend)
	} else {
		b.markLocked(backend, true)
	}
	migrated := b.migrateLocked(backend)
	b.mu.Unlock()
	b.Journal.Record(metrics.EvDrainStart, backend, -1, ActionRedistribute.String())
	b.recordMigrated(backend, migrated)
	return migrated
}

// MigrateOff moves every session bound to a backend onto non-draining
// backends once they can take it (redistribute, or replacements routable)
// and returns the number moved. Placement is load-aware: each session goes
// to the backend with the fewest bound sessions per unit of weight.
func (b *Balancer) MigrateOff(backend int) int {
	b.mu.Lock()
	n := b.migrateLocked(backend)
	b.mu.Unlock()
	b.recordMigrated(backend, n)
	return n
}

// migrateLocked is MigrateOff's body. Sessions move in name order, so a
// migration places them the same way every run.
func (b *Balancer) migrateLocked(backend int) int {
	type target struct {
		id, bound int
		weight    float64
	}
	var targets []target
	for _, e := range b.ents {
		if e.in(viewOpen) && e.id != backend {
			targets = append(targets, target{id: e.id, weight: e.weight})
		}
	}
	if len(targets) == 0 {
		return 0
	}
	var victims []string
	for s, id := range b.sessions {
		if id == backend {
			victims = append(victims, s)
			continue
		}
		for i := range targets {
			if targets[i].id == id {
				targets[i].bound++
			}
		}
	}
	sort.Strings(victims)
	for _, s := range victims {
		best := 0
		for i := range targets {
			if float64(targets[i].bound+1)/targets[i].weight < float64(targets[best].bound+1)/targets[best].weight {
				best = i
			}
		}
		targets[best].bound++
		b.sessions[s] = targets[best].id
	}
	return len(victims)
}

func (b *Balancer) recordMigrated(backend, n int) {
	if n > 0 {
		b.Journal.Record(metrics.EvSessionsMigrated, backend, -1, "n="+metrics.Itoa(n))
	}
}

// CompleteDrain removes a drained backend from rotation and migrates the
// sessions still bound to it before the server terminates, in one step: no
// route or migration can bind a session to it afterwards.
func (b *Balancer) CompleteDrain(backend int) {
	b.mu.Lock()
	b.removeLocked(backend)
	n := b.migrateLocked(backend)
	b.mu.Unlock()
	b.recordMigrated(backend, n)
	b.Journal.Record(metrics.EvDrainComplete, backend, -1, "")
}
