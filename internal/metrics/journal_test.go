package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestJournalGrowsThenWraps: the ring grows on demand, and nothing a reader
// can see — order, Len, Counts, the live feed, /events — tells the growing
// phase from the wrapped one. Checked after every record, through the first
// wrap and well past it.
func TestJournalGrowsThenWraps(t *testing.T) {
	at := time.Unix(100, 0).UTC()
	types := []string{EvWarning, EvDrainStart, EvBackendUp}
	for _, capacity := range []int{1, 3, 1024} {
		j := NewJournal(capacity)
		j.SetClock(func() time.Time { return at })
		sub := j.Subscribe(4*capacity + 8)
		var all []Event
		wantCounts := map[string]int64{}
		for k := 1; k <= 2*capacity+2; k++ {
			ev := Event{Seq: int64(k), At: at, Type: types[k%3], Backend: k, Market: k % 7, Detail: "d"}
			j.Record(ev.Type, ev.Backend, ev.Market, ev.Detail)
			all = append(all, ev)
			wantCounts[ev.Type]++
			if got := <-sub.C; got != ev {
				t.Fatalf("capacity %d: feed delivered %+v after record %d, want %+v", capacity, got, k, ev)
			}
			if capacity > 3 && k > 2 && k < capacity-1 {
				continue // the full comparison below only around the wrap
			}
			want := all[max(0, k-capacity):]
			if got := j.Events(); !reflect.DeepEqual(got, want) || j.Len() != len(want) {
				t.Fatalf("capacity %d after %d records: Len %d, Events %+v; want %d: %+v", capacity, k, j.Len(), got, len(want), want)
			}
			if got := j.Counts(); !reflect.DeepEqual(got, wantCounts) {
				t.Fatalf("capacity %d after %d records: Counts %v, want %v", capacity, k, got, wantCounts)
			}
			rec := httptest.NewRecorder()
			JournalHandler(j).ServeHTTP(rec, httptest.NewRequest("GET", "/events?n=2", nil))
			var served []Event
			if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
				t.Fatal(err)
			}
			if tail := want[max(0, len(want)-2):]; !reflect.DeepEqual(served, tail) {
				t.Fatalf("capacity %d after %d records: /events?n=2 = %+v, want %+v", capacity, k, served, tail)
			}
		}
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("capacity %d: feed dropped %d", capacity, d)
		}
	}
}

// TestJournalEmptyIsSmall: a journal that may retain 8,192 events holds next
// to nothing until it has recorded some (the what-if runner builds one per
// leg and records a few hundred).
func TestJournalEmptyIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := NewJournal(8192)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Fatalf("NewJournal(8192) allocated %d bytes before the first Record, want < 1 KB", got)
	}
	for i := 0; i < 8192+5; i++ {
		j.Record(EvWarning, i, -1, "")
	}
	if evs := j.Events(); j.Len() != 8192 || evs[0].Backend != 5 || evs[8191].Backend != 8192+4 {
		t.Fatalf("after 8197 records: Len %d, oldest %+v", j.Len(), evs[0])
	}
}

// BenchmarkJournalNewAndRecord is one what-if leg's use of its journal: built
// with the runner's capacity, a few hundred lifecycle events recorded, only
// Counts read.
func BenchmarkJournalNewAndRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := NewJournal(8192)
		for k := 0; k < 500; k++ {
			j.Record(EvBackendUp, k, k%6, "")
		}
		if j.Counts()[EvBackendUp] != 500 {
			b.Fatal("lost events")
		}
	}
}

func TestSubscribeDeliversInOrder(t *testing.T) {
	j := NewJournal(16)
	sub := j.Subscribe(8)
	for i := 0; i < 5; i++ {
		j.Record(EvWarning, -1, i, "")
	}
	for i := 0; i < 5; i++ {
		ev := <-sub.C
		if ev.Market != i || ev.Type != EvWarning {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("dropped %d with a keeping-up consumer", d)
	}
}

func TestSubscribeDropsOldestOnOverflow(t *testing.T) {
	j := NewJournal(16)
	sub := j.Subscribe(4)
	for i := 0; i < 10; i++ {
		j.Record(EvWarning, -1, i, "")
	}
	// Buffer holds 4: the first 6 were evicted oldest-first, so the
	// survivors are markets 6..9.
	if d := sub.Dropped(); d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	for want := 6; want < 10; want++ {
		ev := <-sub.C
		if ev.Market != want {
			t.Fatalf("surviving event market = %d, want %d", ev.Market, want)
		}
	}
	select {
	case ev := <-sub.C:
		t.Fatalf("unexpected extra event %+v", ev)
	default:
	}
}

// TestSubscribeBaselineBeatsRingEviction is the regression test for the
// 1024-ring undercount: a subscriber attaching after the ring has wrapped
// must still see the journal's full lifetime history via Baseline, not just
// the retained tail.
func TestSubscribeBaselineBeatsRingEviction(t *testing.T) {
	j := NewJournal(1024)
	const pre = 2000
	for i := 0; i < pre; i++ {
		j.Record(EvWarning, -1, 0, "")
	}
	if j.Len() != 1024 {
		t.Fatalf("ring retained %d", j.Len())
	}
	sub := j.Subscribe(8)
	base := sub.Baseline()
	if base[EvWarning] != pre {
		t.Fatalf("baseline = %d, want %d (ring eviction must not undercount)", base[EvWarning], pre)
	}
	// Events after attach are deliveries, not baseline: no double counting.
	j.Record(EvWarning, -1, 1, "")
	if got := sub.Baseline()[EvWarning]; got != pre {
		t.Fatalf("baseline moved to %d after attach", got)
	}
	ev := <-sub.C
	if ev.Market != 1 {
		t.Fatalf("post-attach delivery = %+v", ev)
	}
}

func TestUnsubscribeClosesChannel(t *testing.T) {
	j := NewJournal(16)
	sub := j.Subscribe(4)
	j.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Fatal("channel still open after Unsubscribe")
	}
	// Records after detach must not panic or deliver.
	j.Record(EvWarning, -1, 0, "")
	j.Unsubscribe(sub) // double-detach is a no-op
}

func TestSubscribeNilJournal(t *testing.T) {
	var j *Journal
	if s := j.Subscribe(4); s != nil {
		t.Fatal("nil journal must return nil subscription")
	}
	j.Unsubscribe(nil)
	var s *Subscription
	if s.Dropped() != 0 || s.Baseline() != nil {
		t.Fatal("nil subscription accessors must be no-ops")
	}
}

// TestSubscribeConcurrentRecorders hammers one subscription from many
// recording goroutines while the consumer drains; run under -race this
// doubles as the journal-side half of the feed stress test. Conservation:
// delivered + dropped + still-buffered = recorded.
func TestSubscribeConcurrentRecorders(t *testing.T) {
	j := NewJournal(64)
	sub := j.Subscribe(32)
	const (
		writers = 8
		each    = 500
	)
	var received int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C {
			received++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.Record(EvWarning, -1, w, "")
			}
		}(w)
	}
	wg.Wait()
	j.Unsubscribe(sub) // closes C; consumer drains what's left and exits
	<-done
	total := received + sub.Dropped()
	if total != writers*each {
		t.Fatalf("received %d + dropped %d = %d, want %d", received, sub.Dropped(), total, writers*each)
	}
	if c := j.Counts()[EvWarning]; c != writers*each {
		t.Fatalf("lifetime count %d", c)
	}
}
