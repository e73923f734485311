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

// NewCountingJournal returns a journal that keeps the lifetime per-type
// counts and nothing else: Record neither reads the clock nor retains nor
// numbers its event, so Events and Len report nothing. It is for a caller
// that reads back Counts alone.
func NewCountingJournal() *Journal {
	return &Journal{counts: make(map[string]int64)}
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
	j.counts[typ]++
	if j.capacity == 0 { // a counting journal
		j.mu.Unlock()
		return
	}
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
	j.mu.Unlock()
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
