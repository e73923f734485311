package cluster

import (
	"math"

	"repro/internal/lb"
	"repro/internal/metrics"
)

// RiskObserver receives the ground-truth signal stream an online risk
// estimator consumes: revocation warnings as they fire, and one
// end-of-interval snapshot of exposure (which markets held live servers)
// and prices. Implemented by *risk.Estimator. The fluid simulator and Front
// call it synchronously, on the goroutine that decides, so every substrate
// feeds it one way and adaptive simulator runs stay byte-deterministic.
type RiskObserver interface {
	ObserveRevocation(market int, injected bool)
	ObserveInterval(t int, exposed []bool, prices []float64)
}

// Front is the clock-free control plane of a front-end tier: a fleet, its
// balancer and a journal, with §6.1's revocation procedure between them.
// Every method takes the time now in the fleet's unit. The caller serializes
// calls and supplies the clock: the testbed from a wall-clock timer, the
// microsim from its event heap.
type Front struct {
	fleet     *Cluster
	bal       *lb.Balancer
	journal   *metrics.Journal
	risk      RiskObserver // sees each warning the journal records; may be nil
	nodes     []*Server    // the live servers, by ID
	launched  []*Server    // launches since the last Advance
	admission bool         // admission control is in force
}

// NewFront returns the control plane over a fleet and its balancer; the
// balancer journals through its own Journal field. A non-nil risk observer
// is told of every revocation warning Revoke delivers; closing its intervals
// is the caller's.
func NewFront(fleet *Cluster, bal *lb.Balancer, journal *metrics.Journal, risk RiskObserver) *Front {
	return &Front{fleet: fleet, bal: bal, journal: journal, risk: risk}
}

// Launch requests a server in a market; it joins rotation once it boots.
func (f *Front) Launch(mkt int, capacity, now float64) *Server {
	s := f.fleet.Launch(mkt, capacity, now)
	for len(f.nodes) <= s.ID {
		f.nodes = append(f.nodes, nil)
	}
	f.nodes[s.ID] = s
	f.launched = append(f.launched, s)
	return s
}

// node returns the live server with the given ID, nil if there is none.
func (f *Front) node(id int) *Server {
	if id < 0 || id >= len(f.nodes) {
		return nil
	}
	return f.nodes[id]
}

// ReadyCapacity sums the warm-adjusted capacity of the booted servers that
// are not draining; one drained or warned while it boots never boots.
func (f *Front) ReadyCapacity(now float64) float64 {
	var sum float64
	for _, s := range f.fleet.Servers() {
		if booted, warm := s.Warmth(now); booted && s.state != StateDraining {
			sum += float64(s.Capacity * warm)
		}
	}
	return sum
}

// Revoke delivers a revocation warning to the given servers; each drains and
// terminates warning after now, and a server already draining keeps its
// drain. A vanilla balancer ignores the warning. Otherwise every victim is
// decided on one utilization, the offered rate over the survivors' ready
// capacity (§6.1), and each victim not redistributed gets a replacement of
// equal capacity, which takes its sessions once it boots (§4.4: start new
// servers, then migrate). It returns the victims' actions in order.
func (f *Front) Revoke(ids []int, offered, now, warning float64) []lb.RevocationAction {
	var victims []*Server
	for _, id := range ids {
		s := f.node(id)
		if s == nil || s.state == StateDraining {
			continue
		}
		s.reason = "revoked"
		f.journal.Record(metrics.EvWarning, id, s.Market, "")
		if f.risk != nil {
			f.risk.ObserveRevocation(s.Market, false)
		}
		f.fleet.RevokeWarning(id, now, warning)
		victims = append(victims, s)
	}
	if f.bal.Vanilla {
		return nil
	}
	util := math.Inf(1) // no survivor absorbs anything
	if ready := f.ReadyCapacity(now); ready > 0 {
		util = offered / ready
	}
	actions := make([]lb.RevocationAction, len(victims))
	for i, s := range victims {
		actions[i], _ = f.bal.HandleWarning(s.ID, util, f.fleet.StartDelay, warning)
		if actions[i] == lb.ActionAdmissionControl && !f.admission {
			f.admission = true
			f.journal.Record(metrics.EvAdmissionOn, s.ID, s.Market, "replacements cannot start in time")
		}
		if actions[i] != lb.ActionRedistribute {
			r := f.Launch(s.Market, s.Capacity, now)
			r.replaces = s
			f.journal.Record(metrics.EvReplacementStarted, r.ID, r.Market, "")
		}
	}
	return actions
}

// Retire drains a server the operator no longer wants: it leaves rotation
// now, in either mode (a scale-down is no revocation), and terminates after
// grace.
func (f *Front) Retire(id int, now, grace float64) {
	s := f.node(id)
	f.journal.Record(metrics.EvScaleDown, id, s.Market, "")
	f.fleet.RevokeWarning(id, now, grace)
	s.reason = "scale_down"
	f.bal.Retire(id)
}

// Advance moves the fleet to now. A booted server joins rotation; a booted
// replacement ends admission control and then takes its victim's sessions. A
// terminated server leaves the balancer with its sessions, except that a
// vanilla balancer keeps routing to a revoked one. It returns the IDs that
// booted and were reaped (valid until the next Advance) and the servers
// launched since the last one, for the caller to attach its own state to.
func (f *Front) Advance(now float64) (booted, reaped []int, launched []*Server) {
	booted, reaped = f.fleet.Advance(now)
	for _, id := range booted {
		s := f.nodes[id]
		f.bal.SetWeight(id, s.Capacity)
		if s.replaces == nil {
			f.journal.Record(metrics.EvBackendUp, id, s.Market, "")
			continue
		}
		f.journal.Record(metrics.EvReplacementUp, id, s.Market, "")
		if f.admission {
			f.admission = false
			f.journal.Record(metrics.EvAdmissionOff, id, -1, "replacement capacity routable")
		}
	}
	// Every server booted at now is routable before any session moves.
	for _, id := range booted {
		if v := f.nodes[id].replaces; v != nil && v.state != StateTerminated {
			f.bal.MigrateOff(v.ID)
		}
	}
	for _, id := range reaped {
		s := f.nodes[id]
		f.nodes[id] = nil
		f.journal.Record(metrics.EvBackendTerminated, id, s.Market, s.reason)
		if !f.bal.Vanilla || s.reason != "revoked" {
			f.bal.CompleteDrain(id)
		}
	}
	launched, f.launched = f.launched, nil
	return booted, reaped, launched
}
