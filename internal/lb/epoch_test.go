package lb

// Epoch-swap reclamation tests: after a table publish, no reader may observe
// the previous epoch's routing decisions. Go's GC is the reclamation
// mechanism (an old *rtable lives while some goroutine still holds it, and
// holding it is safe — it is immutable), so "reclamation" here means the
// visibility contract: a pick that STARTS after publish N must read table N
// or later, never N-1.

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestEpochAdvancesPerPublish pins the generation counter: every mutation
// that republishes bumps the published table's epoch exactly once.
func TestEpochAdvancesPerPublish(t *testing.T) {
	w := NewSmoothWRR()
	if w.table().gen != 0 {
		t.Fatalf("fresh WRR epoch = %d, want 0", w.table().gen)
	}
	w.SetWeight(1, 1)
	w.SetWeight(2, 3)
	if w.table().gen != 2 {
		t.Fatalf("after two SetWeight: epoch = %d, want 2", w.table().gen)
	}
	w.Apply(map[int]float64{1: 1, 2: 3, 3: 2}) // bulk reconcile = one swap
	if w.table().gen != 3 {
		t.Fatalf("after Apply: epoch = %d, want 3", w.table().gen)
	}
	w.setDrain(3, true)
	if w.table().gen != 4 {
		t.Fatalf("setDrain must republish: epoch = %d, want 4", w.table().gen)
	}
}

// TestEpochNoStaleReadAfterTwoSwaps performs two consecutive swaps — the
// first removes backend 1 from rotation, the second reweights backend 2 —
// and asserts every subsequent pick reflects the *second* table: the epoch
// matches and backend 1 never reappears. A reader caching the table across
// publishes (the bug RCU exists to prevent) would fail the id check; a
// reader caching only one swap deep would fail the gen check.
func TestEpochNoStaleReadAfterTwoSwaps(t *testing.T) {
	w := NewSmoothWRR()
	w.SetWeight(1, 1)
	w.SetWeight(2, 1)
	// Warm the cursors so the test also covers the pick path, not just the
	// pointer load.
	for i := 0; i < 10; i++ {
		w.Next()
	}

	w.SetWeight(1, 0) // swap 1: backend 1 leaves rotation
	w.SetWeight(2, 3) // swap 2: backend 2 reweighted
	wantGen := w.table().gen

	for i := 0; i < 1000; i++ {
		if g := w.table().gen; g != wantGen {
			t.Fatalf("pick %d read table gen %d, want %d", i, g, wantGen)
		}
		id, ok := w.Next()
		if !ok {
			t.Fatalf("pick %d: no backend", i)
		}
		if id == 1 {
			t.Fatalf("pick %d returned backend 1, removed two swaps ago", i)
		}
	}
}

// TestConcurrentEpochSwapsNeverResurrect hammers Next from reader
// goroutines while a writer cycles backend 99 in and out of rotation and
// continuously republishes other weights. After the writer's final removal
// of 99 it flips a fence; any pick that starts after the fence and still
// returns 99 is a stale-table read. (Run under -race this also proves the
// publish/load pair is properly synchronized.)
func TestConcurrentEpochSwapsNeverResurrect(t *testing.T) {
	w := NewSmoothWRR()
	for id := 0; id < 8; id++ {
		w.SetWeight(id, float64(1+id%3))
	}

	var fence atomic.Bool // set once backend 99 is gone for good
	var stop atomic.Bool
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				fenced := fence.Load() // read BEFORE the pick starts
				id, ok := w.Next()
				if !ok {
					continue
				}
				if fenced && id == 99 {
					t.Error("pick started after final removal returned backend 99")
					return
				}
			}
		}()
	}

	for round := 0; round < 200; round++ {
		w.SetWeight(99, 5)
		w.SetWeight(7, float64(1+round%4)) // unrelated churn, extra swaps
		w.SetWeight(99, 0)
	}
	w.Remove(99)
	fence.Store(true)
	// Let the readers chew on the post-fence table for a while.
	for i := 0; i < 10000; i++ {
		w.Next()
	}
	stop.Store(true)
	wg.Wait()
}
