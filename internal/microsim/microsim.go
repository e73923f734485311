// Package microsim is a request-level discrete-event simulator: individual
// requests arrive as a (non-homogeneous) Poisson process, are routed by the
// real transiency-aware balancer (internal/lb), and are served by
// processor-sharing servers — the M/G/1-PS model whose fluid limit is the
// interval simulator in internal/sim. It produces per-request latency
// distributions (the boxplots of Fig. 4(a)) deterministically and orders of
// magnitude faster than the wall-clock testbed, and it cross-validates the
// fluid model: both must agree on drop fractions and mean latency for the
// same scenario.
package microsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/lb"
)

// eventKind discriminates heap entries.
type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evRevocationWarning
	evTermination
	evServerReady
	evMigrate
)

// event is one heap entry. Completion events carry a per-server version so
// stale entries (scheduled before the server's job set changed) are skipped.
type event struct {
	at      float64
	kind    eventKind
	server  int
	version int
	index   int
}

type eventHeap []*event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *eventHeap) Push(x interface{}) { e := x.(*event); e.index = len(*h); *h = append(*h, e) }
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
// (request units per second) shared equally among active jobs.
type psServer struct {
	id         int
	capacity   float64
	jobs       map[int]*job // jobID → job
	lastUpdate float64
	version    int
	// ready gates service until the simulated boot completes.
	ready      bool
	terminated bool
}

// advance progresses all jobs' remaining work to time now.
func (s *psServer) advance(now float64) {
	n := len(s.jobs)
	if n > 0 && now > s.lastUpdate && s.ready && !s.terminated {
		each := (now - s.lastUpdate) * s.capacity / float64(n)
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
	if !s.ready || s.terminated || len(s.jobs) == 0 || s.capacity <= 0 {
		return math.Inf(1)
	}
	minRem := math.Inf(1)
	for _, j := range s.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	return s.lastUpdate + minRem*float64(len(s.jobs))/s.capacity
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

	servers := map[int]*psServer{}
	var h eventHeap
	addServer := func(spec ServerSpec, now float64) *psServer {
		id := len(servers)
		s := &psServer{id: id, capacity: spec.Capacity, jobs: map[int]*job{}, lastUpdate: now}
		servers[id] = s
		if spec.ReadyAt <= now {
			s.ready = true
			bal.SetWeight(id, spec.Capacity)
		} else {
			heap.Push(&h, &event{at: spec.ReadyAt, kind: evServerReady, server: id})
		}
		return s
	}
	for _, spec := range cfg.Servers {
		addServer(spec, 0)
	}
	for _, rev := range cfg.Revocations {
		heap.Push(&h, &event{at: rev.At, kind: evRevocationWarning, server: -1})
	}
	// First arrival.
	heap.Push(&h, &event{at: rng.ExpFloat64() / cfg.Rate, kind: evArrival})

	res := &Result{}
	pendingMigration := map[int]bool{}
	jobIDs := 0
	jobServer := map[int]int{} // jobID → server
	jobMeta := map[int]*job{}
	arrivalOf := map[int]float64{}
	sessionN := 0

	scheduleCompletion := func(s *psServer) {
		s.version++
		if at := s.nextCompletion(); !math.IsInf(at, 1) {
			heap.Push(&h, &event{at: at, kind: evCompletion, server: s.id, version: s.version})
		}
	}
	maxQueue := func(s *psServer) int {
		if cfg.MaxQueue > 0 {
			return cfg.MaxQueue
		}
		mq := int(4 * s.capacity)
		if mq < 8 {
			mq = 8
		}
		return mq
	}

	revIdx := 0
	for h.Len() > 0 {
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
			srv := servers[id]
			if !ok || srv == nil || !srv.ready || srv.terminated {
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: now, Dropped: true})
				continue
			}
			srv.advance(now)
			if len(srv.jobs) >= maxQueue(srv) {
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: now, Dropped: true})
				continue
			}
			jobIDs++
			j := &job{arrived: now, remaining: rng.ExpFloat64()}
			srv.jobs[jobIDs] = j
			jobServer[jobIDs] = srv.id
			jobMeta[jobIDs] = j
			arrivalOf[jobIDs] = now
			scheduleCompletion(srv)

		case evCompletion:
			srv := servers[e.server]
			if srv == nil || e.version != srv.version {
				continue // stale
			}
			srv.advance(now)
			finish := func(id int, j *job) {
				delete(srv.jobs, id)
				res.Served++
				res.Samples = append(res.Samples, Sample{
					At: arrivalOf[id], Latency: now - j.arrived,
				})
				delete(jobServer, id)
				delete(jobMeta, id)
				delete(arrivalOf, id)
			}
			// Complete every job whose remaining work hit zero. Floating
			// error can leave the scheduled job a hair above zero, which
			// would re-arm a zero-width event forever — so if the tolerance
			// catches nothing, force-complete the minimum-remaining job
			// (this event was scheduled for exactly its completion).
			completed := false
			for id, j := range srv.jobs {
				if j.remaining <= 1e-9 {
					finish(id, j)
					completed = true
				}
			}
			if !completed && len(srv.jobs) > 0 && srv.ready && !srv.terminated {
				minID, minJob := -1, (*job)(nil)
				for id, j := range srv.jobs {
					if minJob == nil || j.remaining < minJob.remaining {
						minID, minJob = id, j
					}
				}
				if minJob.remaining < 1e-6 {
					finish(minID, minJob)
				}
			}
			scheduleCompletion(srv)

		case evServerReady:
			srv := servers[e.server]
			srv.advance(now)
			srv.ready = true
			bal.SetWeight(srv.id, srv.capacity)
			scheduleCompletion(srv)

		case evMigrate:
			// All replacement capacity scheduled before this event is now
			// routable: move sessions off the soft-draining (revoked but
			// still serving) backends, well inside the warning period.
			for v := range pendingMigration {
				bal.MigrateOff(v)
				delete(pendingMigration, v)
			}

		case evRevocationWarning:
			rev := cfg.Revocations[revIdx]
			revIdx++
			// Total ready capacity and a crude offered estimate decide the
			// action, mirroring the testbed.
			var remaining float64
			victims := map[int]bool{}
			for _, vi := range rev.Servers {
				victims[vi] = true
			}
			for id, s := range servers {
				if s.ready && !s.terminated && !victims[id] {
					remaining += s.capacity
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
				heap.Push(&h, &event{at: now + cfg.Warning, kind: evTermination, server: vi})
			}
			for _, spec := range rev.Replacements {
				spec.ReadyAt = now + rev.ReplacementDelay
				addServer(spec, now)
			}
			if len(rev.Replacements) > 0 {
				// Migrate strictly after every replacement's ready event.
				heap.Push(&h, &event{at: now + rev.ReplacementDelay + 1e-6, kind: evMigrate})
			}

		case evTermination:
			srv := servers[e.server]
			if srv == nil || srv.terminated {
				continue
			}
			srv.advance(now)
			srv.terminated = true
			if !cfg.Vanilla {
				bal.CompleteDrain(srv.id)
			}
			// Vanilla keeps the dead backend in rotation; arrivals routed
			// to it are dropped at the routing step.
			// In-flight jobs on the terminated server are lost.
			for id, j := range srv.jobs {
				_ = j
				delete(srv.jobs, id)
				res.Dropped++
				res.Samples = append(res.Samples, Sample{At: arrivalOf[id], Dropped: true})
				delete(jobServer, id)
				delete(jobMeta, id)
				delete(arrivalOf, id)
			}
		}
	}
	return res, nil
}
