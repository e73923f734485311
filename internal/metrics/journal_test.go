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
// can see — order, Len, Counts, /events — tells the growing phase from the
// wrapped one. Checked after every record, through the first wrap and well
// past it.
func TestJournalGrowsThenWraps(t *testing.T) {
	at := time.Unix(100, 0).UTC()
	types := []string{EvWarning, EvDrainStart, EvBackendUp}
	for _, capacity := range []int{1, 3, 1024} {
		j := NewJournal(capacity)
		j.SetClock(func() time.Time { return at })
		var all []Event
		wantCounts := map[string]int64{}
		for k := 1; k <= 2*capacity+2; k++ {
			ev := Event{Seq: int64(k), At: at, Type: types[k%3], Backend: k, Market: k % 7, Detail: "d"}
			j.Record(ev.Type, ev.Backend, ev.Market, ev.Detail)
			all = append(all, ev)
			wantCounts[ev.Type]++
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

// TestJournalConcurrentRecorders: many goroutines record at once; under
// -race this is the journal's share of the control plane's concurrency, and
// the lifetime count loses nothing the ring evicted.
func TestJournalConcurrentRecorders(t *testing.T) {
	j := NewJournal(64)
	const (
		writers = 8
		each    = 500
	)
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
	if c := j.Counts()[EvWarning]; c != writers*each || j.Len() != 64 {
		t.Fatalf("lifetime count %d, retained %d; want %d and 64", c, j.Len(), writers*each)
	}
}
