// Package microsim is a request-level discrete-event simulator: individual
// requests arrive as a Poisson process, are routed by the real
// transiency-aware balancer (internal/lb), and are served by
// processor-sharing servers — the M/G/1-PS model whose fluid limit is the
// interval simulator in internal/sim. It produces per-request latency
// distributions (the boxplots of Fig. 4(a)) deterministically, and it
// cross-validates the fluid model on drop fractions and mean latency. It
// drives the testbed's control plane, internal/cluster's Front, on a virtual
// clock: servers boot, drain and terminate, and revocations are decided, as
// on the testbed's wall clock.
package microsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/metrics"
)

// eventKind discriminates heap entries.
type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
)

// event is one heap entry. Completion events carry a per-server version so
// stale entries (scheduled before the server's job set changed) are skipped.
type event struct {
	at      float64
	kind    eventKind
	server  int
	version int
}

type eventHeap []*event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// job is one in-flight request on a PS server.
type job struct {
	arrived   float64
	remaining float64 // remaining service demand, in request units
}

// psServer is a processor-sharing station: total service rate Capacity
// (request units per second) shared equally among active jobs. Its lifecycle
// is node's; jobs only reach a booted server, and a terminated one drops them.
type psServer struct {
	node       *cluster.Server
	jobs       []*job // in arrival order
	limit      int    // jobs beyond it are shed
	lastUpdate float64
	version    int
}

// advance progresses all jobs' remaining work to time now.
func (s *psServer) advance(now float64) {
	n := len(s.jobs)
	if n > 0 && now > s.lastUpdate {
		each := (now - s.lastUpdate) * s.node.Capacity / float64(n)
		for _, j := range s.jobs {
			j.remaining -= each
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
	}
	s.lastUpdate = now
}

// nextCompletion returns the time the earliest job finishes under the
// current job set, or +Inf.
func (s *psServer) nextCompletion() float64 {
	if len(s.jobs) == 0 || s.node.Capacity <= 0 {
		return math.Inf(1)
	}
	minRem := math.Inf(1)
	for _, j := range s.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	return s.lastUpdate + minRem*float64(len(s.jobs))/s.node.Capacity
}

// Revocation schedules a warning for a set of servers. The control plane
// decides each victim's action and starts its replacement (cluster.Front).
type Revocation struct {
	At      float64 // warning time (seconds)
	Servers []int   // fleet IDs; the initial fleet's are its Config.Servers indices
}

// Config is a microsim scenario.
type Config struct {
	Seed int64
	// Duration of the run in seconds.
	Duration float64
	// Rate is the arrival rate (req/s), also the offered rate a revocation
	// is decided on.
	Rate float64
	// Sessions cycles this many sticky session ids (0 = stateless).
	Sessions int
	// Servers is the initial fleet, one service rate (req/s; request demand
	// has mean 1 unit) per server. It launches at −StartDelay, so it is
	// ready at 0.
	Servers []float64
	// StartDelay is every server's boot time (seconds): replacements serve
	// StartDelay after their warning.
	StartDelay float64
	// Revocations to inject, in time order (Run rejects any other).
	Revocations []Revocation
	// Warning is the revocation warning period (seconds).
	Warning float64
	// Vanilla disables transiency awareness.
	Vanilla bool
}

// Sample is one completed or dropped request.
type Sample struct {
	At      float64 // arrival time
	Latency float64 // seconds (served only)
	Dropped bool
}

// Result of a run.
type Result struct {
	Samples []Sample
	Served  int
	Dropped int
	// Journal counts the control plane's lifecycle events by type, and
	// Actions lists the revocation victims' actions in order.
	Journal map[string]int64
	Actions []lb.RevocationAction
}

// DropFraction returns dropped / total.
func (r *Result) DropFraction() float64 {
	total := r.Served + r.Dropped
	if total == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(total)
}

// LatenciesBetween returns the served latencies with arrival in [from, to).
func (r *Result) LatenciesBetween(from, to float64) []float64 {
	var out []float64
	for _, s := range r.Samples {
		if !s.Dropped && s.At >= from && s.At < to {
			out = append(out, s.Latency)
		}
	}
	return out
}

// DropsBetween counts drops with arrival in [from, to).
func (r *Result) DropsBetween(from, to float64) int {
	n := 0
	for _, s := range r.Samples {
		if s.Dropped && s.At >= from && s.At < to {
			n++
		}
	}
	return n
}

// Run executes the scenario.
func Run(cfg Config) (*Result, error) {
	if cfg.Duration <= 0 || cfg.Rate <= 0 || len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("microsim: invalid config")
	}
	for i := 1; i < len(cfg.Revocations); i++ {
		if prev, at := cfg.Revocations[i-1].At, cfg.Revocations[i].At; at < prev {
			return nil, fmt.Errorf("microsim: revocation %d at %gs precedes revocation %d at %gs: revocations must be in time order", i, at, i-1, prev)
		}
	}
	if cfg.Warning <= 0 {
		cfg.Warning = 120
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	journal := metrics.NewCountingJournal()
	bal := lb.NewBalancer()
	bal.Vanilla = cfg.Vanilla
	bal.Journal = journal
	fleet := cluster.New(math.Max(cfg.StartDelay, 0), 0)
	front := cluster.NewFront(fleet, bal, journal, nil)

	var servers []*psServer // by the fleet's ID
	var h eventHeap
	res := &Result{}
	// advance moves the control plane to now: a launched server gets its
	// station, and a terminated one loses its in-flight jobs (vanilla keeps
	// the dead server in rotation; arrivals routed to it are dropped at the
	// routing step).
	advance := func(now float64) {
		_, reaped, launched := front.Advance(now)
		for _, node := range launched {
			// A server sheds (503) beyond 4× its capacity in concurrent jobs.
			limit := max(int(4*node.Capacity), 8)
			servers = append(servers, &psServer{node: node, limit: limit, lastUpdate: now})
		}
		for _, id := range reaped {
			srv := servers[id]
			for _, j := range srv.jobs {
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: j.arrived, Dropped: true})
			}
			srv.jobs = nil
		}
	}
	for _, capacity := range cfg.Servers {
		front.Launch(0, capacity, -fleet.StartDelay)
	}
	advance(-fleet.StartDelay)
	// First arrival.
	heap.Push(&h, &event{at: rng.ExpFloat64() / cfg.Rate, kind: evArrival})

	sessionN := 0

	scheduleCompletion := func(s *psServer) {
		s.version++
		if at := s.nextCompletion(); !math.IsInf(at, 1) {
			heap.Push(&h, &event{at: at, kind: evCompletion, server: s.node.ID, version: s.version})
		}
	}

	revs := cfg.Revocations
	for h.Len() > 0 {
		// Fleet transitions due no later than the next event go first, then
		// revocations.
		if at := fleet.Next(); at <= h[0].at {
			advance(at)
			continue
		}
		if len(revs) > 0 && revs[0].At <= h[0].at {
			res.Actions = append(res.Actions, front.Revoke(revs[0].Servers, cfg.Rate, revs[0].At, cfg.Warning)...)
			advance(revs[0].At)
			revs = revs[1:]
			continue
		}
		e := heap.Pop(&h).(*event)
		now := e.at
		if now > cfg.Duration && e.kind == evArrival {
			break
		}
		switch e.kind {
		case evArrival:
			heap.Push(&h, &event{at: now + rng.ExpFloat64()/cfg.Rate, kind: evArrival})
			session := ""
			if cfg.Sessions > 0 {
				session = fmt.Sprintf("s%d", sessionN%cfg.Sessions)
				sessionN++
			}
			id, ok := bal.Route(session)
			if !ok || servers[id].node.State() == cluster.StateTerminated {
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: now, Dropped: true})
				continue
			}
			srv := servers[id]
			srv.advance(now)
			if len(srv.jobs) >= srv.limit {
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: now, Dropped: true})
				continue
			}
			srv.jobs = append(srv.jobs, &job{arrived: now, remaining: rng.ExpFloat64()})
			scheduleCompletion(srv)

		case evCompletion:
			srv := servers[e.server]
			if e.version != srv.version {
				continue // stale
			}
			srv.advance(now)
			finish := func(j *job) {
				res.Served++
				res.Samples = append(res.Samples, Sample{At: j.arrived, Latency: now - j.arrived})
			}
			// Complete every job whose remaining work hit zero. Floating
			// error can leave the scheduled job a hair above zero, which
			// would re-arm a zero-width event forever — so if the tolerance
			// catches nothing, force-complete the minimum-remaining job
			// (this event was scheduled for exactly its completion).
			kept := srv.jobs[:0]
			for _, j := range srv.jobs {
				if j.remaining <= 1e-9 {
					finish(j)
				} else {
					kept = append(kept, j)
				}
			}
			if len(kept) == len(srv.jobs) && len(kept) > 0 {
				m := 0
				for k, j := range kept {
					if j.remaining < kept[m].remaining {
						m = k
					}
				}
				if kept[m].remaining < 1e-6 {
					finish(kept[m])
					kept = append(kept[:m], kept[m+1:]...)
				}
			}
			srv.jobs = kept
			scheduleCompletion(srv)
		}
	}
	res.Journal = journal.Counts()
	return res, nil
}
