// Package microsim is a request-level discrete-event simulator: individual
// requests arrive as a (non-homogeneous) Poisson process, are routed by the
// real transiency-aware balancer (internal/lb), and are served by
// processor-sharing servers — the M/G/1-PS model whose fluid limit is the
// interval simulator in internal/sim. It produces per-request latency
// distributions (the boxplots of Fig. 4(a)) deterministically and orders of
// magnitude faster than the wall-clock testbed, and it cross-validates the
// fluid model: both must agree on drop fractions and mean latency for the
// same scenario. Servers boot, drain and terminate through the same
// internal/cluster state machine as the fluid simulator's and the testbed's.
package microsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/lb"
)

// eventKind discriminates heap entries.
type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evRevocationWarning
	evMigrate
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

// ServerSpec declares one server in the scenario.
type ServerSpec struct {
	// Capacity is the service rate in requests/second (request demand has
	// mean 1 unit).
	Capacity float64
	// ReadyAt is when the server finishes booting (0 = from the start).
	ReadyAt float64
}

// Revocation schedules a warning for a set of servers.
type Revocation struct {
	At      float64 // warning time (seconds)
	Servers []int   // indices into the ServerSpec slice
	// Replacements are started at the warning time (the reprovision path);
	// they become ready after ReplacementDelay.
	Replacements     []ServerSpec
	ReplacementDelay float64
}

// Config is a microsim scenario.
type Config struct {
	Seed int64
	// Duration of the run in seconds.
	Duration float64
	// Rate is the arrival rate (req/s); RateFn overrides it when non-nil
	// (non-homogeneous Poisson via thinning with Rate as the majorant).
	Rate   float64
	RateFn func(t float64) float64
	// Sessions cycles this many sticky session ids (0 = stateless).
	Sessions int
	// Servers is the initial fleet.
	Servers []ServerSpec
	// Revocations to inject.
	Revocations []Revocation
	// Warning is the revocation warning period (seconds).
	Warning float64
	// Vanilla disables transiency awareness.
	Vanilla bool
	// MaxQueue bounds concurrent jobs per server; beyond it requests are
	// shed (503). Zero means 4× capacity.
	MaxQueue int
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
	if cfg.Warning <= 0 {
		cfg.Warning = 120
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bal := lb.NewBalancer()
	bal.Vanilla = cfg.Vanilla

	// Servers, jobs and pending migrations are visited in id, arrival and id
	// order: map order would make two runs of one Config differ.
	var servers []*psServer // by id, the fleet's ID
	var h eventHeap
	res := &Result{}
	fleet := cluster.New(0, 0)
	addServer := func(capacity, now, bootDelay float64) {
		fleet.StartDelay = math.Max(bootDelay, 0)
		node := fleet.Launch(0, capacity, now)
		servers = append(servers, &psServer{node: node, lastUpdate: now})
	}
	// advanceFleet moves the fleet to now: a booted server joins the
	// balancer, and a terminated one leaves it and loses its in-flight jobs
	// (vanilla keeps the dead server in rotation; arrivals routed to it are
	// dropped at the routing step).
	advanceFleet := func(now float64) {
		ready, reaped := fleet.Advance(now)
		for _, id := range ready {
			bal.SetWeight(id, servers[id].node.Capacity)
		}
		for _, id := range reaped {
			srv := servers[id]
			if !cfg.Vanilla {
				bal.CompleteDrain(id)
			}
			for _, j := range srv.jobs {
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: j.arrived, Dropped: true})
			}
			srv.jobs = nil
		}
	}
	for _, spec := range cfg.Servers {
		addServer(spec.Capacity, 0, spec.ReadyAt)
	}
	for _, rev := range cfg.Revocations {
		heap.Push(&h, &event{at: rev.At, kind: evRevocationWarning, server: -1})
	}
	// First arrival.
	heap.Push(&h, &event{at: rng.ExpFloat64() / cfg.Rate, kind: evArrival})

	pendingMigration := map[int]bool{}
	sessionN := 0

	scheduleCompletion := func(s *psServer) {
		s.version++
		if at := s.nextCompletion(); !math.IsInf(at, 1) {
			heap.Push(&h, &event{at: at, kind: evCompletion, server: s.node.ID, version: s.version})
		}
	}
	maxQueue := func(s *psServer) int {
		if cfg.MaxQueue > 0 {
			return cfg.MaxQueue
		}
		mq := int(4 * s.node.Capacity)
		if mq < 8 {
			mq = 8
		}
		return mq
	}

	revIdx := 0
	for h.Len() > 0 {
		// Fleet transitions due no later than the next event go first.
		if at := fleet.Next(); at <= h[0].at {
			advanceFleet(at)
			continue
		}
		e := heap.Pop(&h).(*event)
		now := e.at
		if now > cfg.Duration && e.kind == evArrival {
			break
		}
		switch e.kind {
		case evArrival:
			// Schedule the next arrival (thinning for RateFn).
			next := now + rng.ExpFloat64()/cfg.Rate
			heap.Push(&h, &event{at: next, kind: evArrival})
			if cfg.RateFn != nil && rng.Float64() > cfg.RateFn(now)/cfg.Rate {
				continue // thinned out
			}
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
			if len(srv.jobs) >= maxQueue(srv) {
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

		case evMigrate:
			// All replacement capacity scheduled before this event is now
			// routable: move sessions off the soft-draining (revoked but
			// still serving) backends, well inside the warning period.
			victims := make([]int, 0, len(pendingMigration))
			for v := range pendingMigration {
				victims = append(victims, v)
			}
			sort.Ints(victims)
			for _, v := range victims {
				bal.MigrateOff(v)
				delete(pendingMigration, v)
			}

		case evRevocationWarning:
			rev := cfg.Revocations[revIdx]
			revIdx++
			// The survivors' capacity and a crude offered estimate decide
			// the action, mirroring the testbed.
			var remaining float64
			victims := map[int]bool{}
			for _, vi := range rev.Servers {
				victims[vi] = true
			}
			for _, s := range fleet.Servers() {
				if !victims[s.ID] {
					remaining += s.EffectiveCapacity(now)
				}
			}
			offered := cfg.Rate
			if cfg.RateFn != nil {
				offered = cfg.RateFn(now)
			}
			util := 2.0
			if remaining > 0 {
				util = offered / remaining
			}
			for _, vi := range rev.Servers {
				action, _ := bal.HandleWarning(vi, util, rev.ReplacementDelay, cfg.Warning)
				if !cfg.Vanilla && action != lb.ActionRedistribute {
					pendingMigration[vi] = true
				}
				fleet.RevokeWarning(vi, now, cfg.Warning)
			}
			for _, spec := range rev.Replacements {
				addServer(spec.Capacity, now, rev.ReplacementDelay)
			}
			advanceFleet(now)
			if len(rev.Replacements) > 0 {
				// Migrate strictly after every replacement's ready event.
				heap.Push(&h, &event{at: now + rev.ReplacementDelay + 1e-6, kind: evMigrate})
			}
		}
	}
	return res, nil
}
