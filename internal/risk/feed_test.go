package risk

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// waitFor polls cond until it holds or the deadline passes. The feed pump is
// asynchronous, so assertions on its effects need a bounded wait, not a
// sleep of hopeful length.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestFeedSeedsBaselineFromJournal: attaching to a journal whose ring has
// already wrapped must seed the estimator's lifetime totals from the
// subscription baseline — the undercount fix, end to end.
func TestFeedSeedsBaselineFromJournal(t *testing.T) {
	j := metrics.NewJournal(1024)
	const pre = 2000
	for i := 0; i < pre; i++ {
		j.Record(metrics.EvWarning, -1, 0, "")
	}
	e := New(Config{Metrics: metrics.NewRegistry()}, testCatalog(1, 0.02, nil))
	_, before, _ := estimate(e, 0)
	f := NewFeed(e, FeedConfig{Journal: j, Interval: time.Hour})
	if f == nil {
		t.Fatal("NewFeed returned nil with a live journal")
	}
	defer func() {
		f.Start()
		f.Close()
	}()
	if events(e) != pre {
		t.Fatalf("lifetime events = %d, want %d seeded from baseline", events(e), pre)
	}
	if _, after, _ := estimate(e, 0); after != before {
		t.Fatalf("baseline seeding moved the estimate: %.4f -> %.4f", before, after)
	}
}

// TestFeedPumpsWarningsAndTicks: warnings recorded after attach reach
// ObserveRevocation, and the ticker drives ObserveInterval with the snapshot
// exposure so the evidence window actually grows.
func TestFeedPumpsWarningsAndTicks(t *testing.T) {
	j := metrics.NewJournal(64)
	e := New(Config{Metrics: metrics.NewRegistry(), HalfLifeHrs: 1e9}, testCatalog(1, 0.02, nil))
	f := NewFeed(e, FeedConfig{
		Journal:  j,
		Interval: time.Millisecond,
		Snapshot: func() ([]bool, []float64) { return []bool{true, false}, nil },
	})
	f.Start()
	defer f.Close()
	for i := 0; i < 5; i++ {
		j.Record(metrics.EvWarning, -1, 0, "")
	}
	// Non-warning and out-of-range events must be ignored, not crash.
	j.Record(metrics.EvDrainStart, -1, 0, "")
	j.Record(metrics.EvWarning, -1, -1, "")
	if !waitFor(t, 5*time.Second, func() bool { return events(e) >= 5 }) {
		t.Fatalf("pump delivered %d/5 warnings", events(e))
	}
	if !waitFor(t, 5*time.Second, func() bool { return exposure(e, 0) >= 3 }) {
		t.Fatalf("ticker accumulated only %.1f exposure intervals", exposure(e, 0))
	}
	if events(e) != 5 {
		t.Fatalf("non-warning events leaked into lifetime totals: %d", events(e))
	}
}

// TestFeedConcurrentJournalStress: many recorders hammer the journal while
// the pump drains and the ticker fires — under -race this is the estimator
// side of the concurrent-feed contract. Conservation: everything recorded is
// either observed or counted dropped.
func TestFeedConcurrentJournalStress(t *testing.T) {
	j := metrics.NewJournal(256)
	e := New(Config{Metrics: metrics.NewRegistry()}, testCatalog(2, 0.02, []int{0, 1}))
	f := NewFeed(e, FeedConfig{
		Journal:  j,
		Buffer:   64,
		Interval: time.Millisecond,
		Snapshot: func() ([]bool, []float64) { return []bool{true, true, false}, []float64{0.03, 0.03, 0.1} },
	})
	f.Start()
	const (
		writers = 8
		each    = 250
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.Record(metrics.EvWarning, -1, w%2, "")
			}
		}(w)
	}
	wg.Wait()
	// All 2,000 records can drain before the first 1-ms tick closes an
	// interval, so wait for a published overlay too before closing the feed:
	// it is this test that would race, not the feed.
	published := func() bool {
		ov := e.Overlay()
		return ov != nil && ov.Version > 0
	}
	ok := waitFor(t, 10*time.Second, func() bool {
		return events(e)+f.sub.Dropped() == writers*each && published()
	})
	f.Close()
	if !ok {
		t.Fatalf("observed %d + dropped %d of %d recorded, overlay published: %v",
			events(e), f.sub.Dropped(), writers*each, published())
	}
}

// TestFeedNilContracts: disabled-path behavior — nil estimator or journal
// yields a nil feed whose every method no-ops.
func TestFeedNilContracts(t *testing.T) {
	j := metrics.NewJournal(16)
	if f := NewFeed(nil, FeedConfig{Journal: j}); f != nil {
		t.Fatal("nil estimator must yield nil feed")
	}
	e := New(Config{}, testCatalog(1, 0.02, nil))
	if f := NewFeed(e, FeedConfig{}); f != nil {
		t.Fatal("nil journal must yield nil feed")
	}
	var f *Feed
	f.Start()
	f.Close()
}
