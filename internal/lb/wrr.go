// Package lb implements SpotWeb's transiency-aware load balancer (§4.4):
// smooth weighted round robin with weights reset online as the portfolio
// changes (the paper's HAProxy wrapper), sticky sessions migrated off
// revoked servers, and §6.1's revocation decision (redistribute, reprovision
// within the warning period, or admission control). A vanilla mode
// reproduces the unmodified-HAProxy baseline.
//
// The balancer is serial: one mutex guards the scheduler and the session
// map, and each operation is one critical section. A route costs tens of
// nanoseconds against a request's hundreds of microseconds of proxying.
package lb

import (
	"fmt"
	"math"
	"sort"
)

// entry is one backend's scheduler row.
type entry struct {
	id      int
	weight  float64
	current float64 // the smooth-WRR score
	// hard: out of every non-vanilla view. soft (§4.4 high utilization):
	// keeps its sessions and sessionless traffic, takes no new sessions.
	hard, soft bool
}

// routeView selects which backends a pick may return.
type routeView uint8

const (
	viewAll  routeView = iota // every backend (vanilla: drain marks ignored)
	viewLive                  // not hard-draining (anonymous traffic)
	viewOpen                  // neither hard- nor soft-draining (new sessions)
)

// in reports whether the entry takes part in a pick in view v.
func (e *entry) in(v routeView) bool {
	return e.weight > 0 && (v == viewAll || !e.hard && (v == viewLive || !e.soft))
}

// nextLocked is nginx's and HAProxy's smooth weighted round robin: each
// backend in view v adds its weight to its score; the highest (ties to the
// lowest id) wins and pays back the view's total. Others keep their score.
func (b *Balancer) nextLocked(v routeView) (id int, ok bool) {
	var total float64
	best := -1
	for i := range b.ents {
		e := &b.ents[i]
		if !e.in(v) {
			continue
		}
		e.current += e.weight
		total += e.weight
		if best < 0 || e.current > b.ents[best].current {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	b.ents[best].current -= total
	return b.ents[best].id, true
}

// findLocked returns the index of id in the id-sorted entries, or where it
// would be inserted, and whether it is there.
func (b *Balancer) findLocked(id int) (int, bool) {
	i := sort.Search(len(b.ents), func(i int) bool { return b.ents[i].id >= id })
	return i, i < len(b.ents) && b.ents[i].id == id
}

// setWeightLocked updates a backend's weight, keeping its score and drain
// marks, or registers it with a zero score.
func (b *Balancer) setWeightLocked(id int, weight float64) {
	i, ok := b.findLocked(id)
	if ok {
		b.ents[i].weight = weight
		return
	}
	b.ents = append(b.ents, entry{})
	copy(b.ents[i+1:], b.ents[i:])
	b.ents[i] = entry{id: id, weight: weight}
}

func checkWeight(id int, weight float64) {
	if !(weight >= 0) || math.IsInf(weight, 1) {
		panic(fmt.Sprintf("lb: invalid weight %v for backend %d", weight, id))
	}
}

// SetWeight adds or updates a backend. A weight of 0 keeps the backend
// registered but never picked for anonymous traffic or a new session;
// sessions already bound to it stay (see Route). A negative or non-finite
// weight panics.
func (b *Balancer) SetWeight(id int, weight float64) {
	checkWeight(id, weight)
	b.mu.Lock()
	b.setWeightLocked(id, weight)
	b.mu.Unlock()
}

// UpdatePortfolio resets backend weights after a new portfolio is chosen
// (the optimizer → LB REST call in the paper). Backends absent from the map
// are removed; present ones keep their drain marks. Routing sees either the
// old portfolio or the new one, never a mix.
func (b *Balancer) UpdatePortfolio(weights map[int]float64) {
	for id, w := range weights {
		checkWeight(id, w)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.ents[:0]
	for _, e := range b.ents {
		if _, ok := weights[e.id]; ok {
			kept = append(kept, e)
		}
	}
	b.ents = kept
	for id, w := range weights {
		b.setWeightLocked(id, w)
	}
}

// Remove deletes a backend and its drain marks. It reports whether the
// backend existed.
func (b *Balancer) Remove(id int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.removeLocked(id)
}

func (b *Balancer) removeLocked(id int) bool {
	i, ok := b.findLocked(id)
	if ok {
		b.ents = append(b.ents[:i], b.ents[i+1:]...)
	}
	return ok
}

// markLocked sets a registered backend's hard or soft drain mark.
func (b *Balancer) markLocked(id int, hard bool) {
	if i, ok := b.findLocked(id); ok && hard {
		b.ents[i].hard = true
	} else if ok {
		b.ents[i].soft = true
	}
}
