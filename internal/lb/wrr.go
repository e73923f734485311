// Package lb implements SpotWeb's transiency-aware load balancer (§4.4):
// a smooth weighted-round-robin scheduler whose weights can be reset online
// as the portfolio changes (the paper's HAProxy wrapper), a sharded session
// table supporting bulk migration off revoked servers, and the revocation
// decision logic (§6.1's three scenarios: redistribute, reprovision within
// the warning period, or admission-control). A vanilla (transiency-unaware)
// mode reproduces the paper's unmodified-HAProxy baseline.
//
// The data plane is lock-free: Route, Next, session Lookup/Assign and the
// admission token bucket never take a mutex. Mutations (planner weight
// updates, drain marks) rebuild an immutable routing table and publish it
// with one atomic pointer swap (see table.go), so a re-plan never stalls
// request routing.
package lb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// SmoothWRR is a smooth weighted round robin scheduler (the algorithm used
// by nginx/HAProxy): proportional-to-weight interleaving without bursts,
// with online weight updates. Picks are lock-free reads of an immutable
// epoch-swapped table; SetWeight/Remove serialize on a mutation mutex,
// rebuild the table, and publish it atomically — so Next never contends
// with a planner update. It is safe for concurrent use.
type SmoothWRR struct {
	mu   sync.Mutex // serializes mutations only; never held by picks
	ents []rentry   // master copy, ascending id
	gen  uint64
	tbl  atomic.Pointer[rtable]

	curAll, curLive, curOpen cursor
}

// NewSmoothWRR returns an empty scheduler.
func NewSmoothWRR() *SmoothWRR {
	w := &SmoothWRR{}
	w.tbl.Store(emptyTable)
	return w
}

// table returns the current immutable routing table.
func (w *SmoothWRR) table() *rtable { return w.tbl.Load() }

// publishLocked rebuilds and atomically publishes the table; callers hold mu.
func (w *SmoothWRR) publishLocked() {
	w.gen++
	ents := make([]rentry, len(w.ents))
	copy(ents, w.ents)
	w.tbl.Store(buildTable(w.gen, ents))
}

// findLocked returns the index of id in the master entry slice, or -1.
func (w *SmoothWRR) findLocked(id int) int {
	i := sort.Search(len(w.ents), func(i int) bool { return w.ents[i].id >= id })
	if i < len(w.ents) && w.ents[i].id == id {
		return i
	}
	return -1
}

// SetWeight adds or updates a backend. A weight of 0 keeps the backend
// registered but never selected.
func (w *SmoothWRR) SetWeight(id int, weight float64) {
	if weight < 0 {
		panic(fmt.Sprintf("lb: negative weight %v for backend %d", weight, id))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if i := w.findLocked(id); i >= 0 {
		w.ents[i].weight = weight
	} else {
		at := sort.Search(len(w.ents), func(i int) bool { return w.ents[i].id >= id })
		w.ents = append(w.ents, rentry{})
		copy(w.ents[at+1:], w.ents[at:])
		w.ents[at] = rentry{id: id, weight: weight}
	}
	w.publishLocked()
}

// Apply bulk-reconciles the scheduler to a weight map in one table rebuild:
// backends absent from the map are removed (clearing their drain marks),
// present ones are set to their weight, keeping any drain marks. This is
// the planner's path — one epoch swap per re-plan instead of one per
// backend.
func (w *SmoothWRR) Apply(weights map[int]float64) {
	for id, wt := range weights {
		if wt < 0 {
			panic(fmt.Sprintf("lb: negative weight %v for backend %d", wt, id))
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.ents[:0]
	for _, e := range w.ents {
		if wt, ok := weights[e.id]; ok {
			e.weight = wt
			kept = append(kept, e)
		}
	}
	w.ents = kept
	for bid, wt := range weights {
		if w.findLocked(bid) < 0 {
			at := sort.Search(len(w.ents), func(i int) bool { return w.ents[i].id >= bid })
			w.ents = append(w.ents, rentry{})
			copy(w.ents[at+1:], w.ents[at:])
			w.ents[at] = rentry{id: bid, weight: wt}
		}
	}
	w.publishLocked()
}

// Remove deletes a backend (and its drain marks). It reports whether the
// backend existed.
func (w *SmoothWRR) Remove(id int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := w.findLocked(id)
	if i < 0 {
		return false
	}
	w.ents = append(w.ents[:i], w.ents[i+1:]...)
	w.publishLocked()
	return true
}

// setDrain marks a backend hard- or soft-draining (Balancer's warning
// path); clearDrain removes both marks.
func (w *SmoothWRR) setDrain(id int, hard bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := w.findLocked(id)
	if i < 0 {
		return
	}
	if hard {
		w.ents[i].hard = true
	} else {
		w.ents[i].soft = true
	}
	w.publishLocked()
}

// drainState reports a backend's drain marks from the published table
// (lock-free; an array index on the sticky hot path when ids are dense).
func (w *SmoothWRR) drainState(id int) (hard, soft, registered bool) {
	t := w.table()
	if t.dense != nil {
		if id < 0 || id >= len(t.dense) {
			return false, false, false
		}
		s := t.dense[id]
		return s == stateHard, s == stateSoft, s != 0
	}
	e, ok := t.lookup(id)
	return e.hard, e.soft, ok
}

// Next picks the next backend over all registered positive-weight entries
// (drain marks are ignored — the vanilla baseline's view). ok is false when
// no backend has positive weight. Lock-free.
func (w *SmoothWRR) Next() (id int, ok bool) {
	return w.curAll.next(w.table().seqAll)
}

// nextLive picks excluding hard-draining backends (anonymous traffic; the
// §4.4 soft-draining servers keep receiving sessionless load). Lock-free.
func (w *SmoothWRR) nextLive() (id int, ok bool) {
	return w.curLive.next(w.table().seqLive)
}

// nextOpen picks excluding both hard- and soft-draining backends (new
// session bindings). Lock-free.
func (w *SmoothWRR) nextOpen() (id int, ok bool) {
	return w.curOpen.next(w.table().seqOpen)
}

// Has reports whether a backend is still registered (removal marks the end
// of its drain lifecycle, so Has doubles as the routability check closing
// the assign/drain race in Balancer.Route). Lock-free.
func (w *SmoothWRR) Has(id int) bool {
	t := w.table()
	if t.dense != nil {
		return id >= 0 && id < len(t.dense) && t.dense[id] != 0
	}
	_, ok := t.lookup(id)
	return ok
}

// Len returns the number of registered backends.
func (w *SmoothWRR) Len() int { return len(w.table().ents) }
