package metrics

import (
	"sync"
	"time"
)

// Revocation-lifecycle event types (§5.2/§6.1: warning received → drain
// started → sessions migrated → replacement up → admission control
// on/off), plus the ordinary fleet-churn events that bracket them. Detail
// strings carry free-form context (action chosen, session counts).
const (
	EvWarning            = "revocation_warning"
	EvDrainStart         = "drain_start"
	EvDrainComplete      = "drain_complete"
	EvSessionsMigrated   = "sessions_migrated"
	EvReplacementStarted = "replacement_started"
	EvReplacementUp      = "replacement_up"
	EvAdmissionOn        = "admission_control_on"
	EvAdmissionOff       = "admission_control_off"
	EvBackendUp          = "backend_up"
	EvBackendTerminated  = "backend_terminated"
	EvScaleDown          = "scale_down"
)

// Event is one structured journal entry. Backend and Market are -1 when
// the event is not tied to a specific backend or market.
type Event struct {
	Seq     int64     `json:"seq"`
	At      time.Time `json:"at"`
	Type    string    `json:"type"`
	Backend int       `json:"backend"`
	Market  int       `json:"market"`
	Detail  string    `json:"detail,omitempty"`
}

// Journal is a bounded, ordered, concurrent-safe event log: the newest
// `capacity` events are retained in a ring; per-type lifetime counts
// survive eviction (so /metrics totals stay monotone even after the ring
// wraps). The ring grows by append until it holds `capacity` events and only
// then wraps, so a journal costs what it has recorded, not what it may
// retain. All methods are nil-receiver no-ops, making an unset journal
// free on the paths that record into it.
type Journal struct {
	mu       sync.Mutex
	buf      []Event // the retained events; len(buf) ≤ capacity
	capacity int
	head     int // index of the oldest event once the ring is full; 0 before
	seq      int64
	counts   map[string]int64
	now      func() time.Time
	subs     []*Subscription
}

// NewJournal returns a journal retaining the newest `capacity` events
// (default 1024 when ≤ 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Journal{
		capacity: capacity,
		counts:   make(map[string]int64),
		now:      time.Now,
	}
}

// SetClock overrides the time source (tests).
func (j *Journal) SetClock(now func() time.Time) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.now = now
	j.mu.Unlock()
}

// Record appends one event. Use -1 for backend/market when inapplicable.
func (j *Journal) Record(typ string, backend, market int, detail string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	ev := Event{
		Seq:     j.seq,
		At:      j.now(),
		Type:    typ,
		Backend: backend,
		Market:  market,
		Detail:  detail,
	}
	if len(j.buf) < j.capacity {
		j.buf = append(j.buf, ev)
	} else {
		j.buf[j.head] = ev
		j.head = (j.head + 1) % len(j.buf)
	}
	j.counts[typ]++
	for _, s := range j.subs {
		s.push(ev)
	}
	j.mu.Unlock()
}

// Subscription is a bounded, non-blocking live feed of journal events.
// Consumers receive from C; when a consumer falls behind and the buffer
// fills, the OLDEST buffered event is dropped to make room for the newest
// (Dropped counts the evictions), so Record never blocks on a slow
// subscriber. Baseline carries the lifetime per-type counts at attach time:
// the ring only retains the newest `capacity` events, so a late subscriber
// that rebuilt state from Events() alone would undercount everything the
// ring already evicted — consuming Baseline on attach closes that gap.
type Subscription struct {
	C        <-chan Event
	ch       chan Event
	j        *Journal
	dropped  int64 // guarded by j.mu
	baseline map[string]int64
}

// Subscribe attaches a live event feed with the given channel buffer
// (default 256 when ≤ 0). Returns nil on a nil journal. Detach with
// Unsubscribe; an abandoned subscription keeps evicting its own oldest
// events, so it never stalls the journal, but Unsubscribe releases it.
func (j *Journal) Subscribe(buffer int) *Subscription {
	if j == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = 256
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &Subscription{
		ch:       make(chan Event, buffer),
		j:        j,
		baseline: make(map[string]int64, len(j.counts)),
	}
	s.C = s.ch
	for k, v := range j.counts {
		s.baseline[k] = v
	}
	j.subs = append(j.subs, s)
	return s
}

// Unsubscribe detaches s and closes its channel. Safe to call on a
// subscription already detached (or nil).
func (j *Journal) Unsubscribe(s *Subscription) {
	if j == nil || s == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, cur := range j.subs {
		if cur == s {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			close(s.ch)
			return
		}
	}
}

// push delivers ev without blocking; called with j.mu held, which
// serializes all senders, so after evicting one element the retry send
// cannot fail (the consumer only ever removes elements).
func (s *Subscription) push(ev Event) {
	select {
	case s.ch <- ev:
		return
	default:
	}
	select {
	case <-s.ch:
		s.dropped++
	default:
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped++ // buffer of size 0 can't happen; defensive
	}
}

// Dropped returns how many buffered events were evicted because the
// subscriber fell behind.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	return s.dropped
}

// Baseline returns the lifetime per-type event counts at the moment the
// subscription attached. Events delivered on C are strictly after this
// baseline, so baseline[typ] + received(typ) equals the journal's lifetime
// count with no double counting and no ring-eviction undercount.
func (s *Subscription) Baseline() map[string]int64 {
	if s == nil {
		return nil
	}
	out := make(map[string]int64, len(s.baseline))
	for k, v := range s.baseline {
		out[k] = v
	}
	return out
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.buf))
	out = append(out, j.buf[j.head:]...)
	return append(out, j.buf[:j.head]...)
}

// Counts returns a copy of the lifetime per-type event counts.
func (j *Journal) Counts() map[string]int64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int64, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}
