package lb

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestSmoothWRRProportions(t *testing.T) {
	w := NewSmoothWRR()
	w.SetWeight(1, 3)
	w.SetWeight(2, 1)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		id, ok := w.Next()
		if !ok {
			t.Fatal("Next failed")
		}
		counts[id]++
	}
	if counts[1] != 3000 || counts[2] != 1000 {
		t.Fatalf("counts = %v, want 3:1", counts)
	}
}

func TestSmoothWRRSmoothness(t *testing.T) {
	// With weights 1:1:1 the scheduler must rotate, never sending two
	// consecutive requests to the same backend.
	w := NewSmoothWRR()
	for i := 1; i <= 3; i++ {
		w.SetWeight(i, 1)
	}
	prev := -1
	for i := 0; i < 100; i++ {
		id, _ := w.Next()
		if id == prev {
			t.Fatalf("consecutive picks of backend %d", id)
		}
		prev = id
	}
}

func TestSmoothWRROnlineWeightUpdate(t *testing.T) {
	w := NewSmoothWRR()
	w.SetWeight(1, 1)
	w.SetWeight(2, 1)
	// Shift all weight to 2.
	w.SetWeight(1, 0)
	for i := 0; i < 10; i++ {
		id, ok := w.Next()
		if !ok || id != 2 {
			t.Fatalf("pick = %d/%v, want 2", id, ok)
		}
	}
	if ents := w.table().ents; len(ents) != 2 || ents[0].weight != 0 || ents[1].weight != 1 {
		t.Fatalf("entries = %+v", ents)
	}
}

func TestSmoothWRREmptyAndRemove(t *testing.T) {
	w := NewSmoothWRR()
	if _, ok := w.Next(); ok {
		t.Fatal("empty scheduler should fail")
	}
	w.SetWeight(5, 1)
	if !w.Remove(5) {
		t.Fatal("Remove failed")
	}
	if w.Remove(5) {
		t.Fatal("double Remove should fail")
	}
	if _, ok := w.Next(); ok {
		t.Fatal("scheduler should be empty again")
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestSmoothWRRNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSmoothWRR().SetWeight(1, -1)
}

func TestBackendsSorted(t *testing.T) {
	w := NewSmoothWRR()
	w.SetWeight(3, 1)
	w.SetWeight(1, 1)
	w.SetWeight(2, 1)
	ids := backendIDs(w)
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("Backends = %v", ids)
	}
}

func TestSmoothWRRConcurrency(t *testing.T) {
	w := NewSmoothWRR()
	for i := 0; i < 4; i++ {
		w.SetWeight(i, float64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Next()
				if i%100 == 0 {
					w.SetWeight(g%4, float64(i%5))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDecideRevocation(t *testing.T) {
	if a := DecideRevocation(0.5, 0.85, 60, 120); a != ActionRedistribute {
		t.Fatalf("low util = %v", a)
	}
	if a := DecideRevocation(0.95, 0.85, 60, 120); a != ActionReprovision {
		t.Fatalf("high util, fast start = %v", a)
	}
	if a := DecideRevocation(0.95, 0.85, 180, 120); a != ActionAdmissionControl {
		t.Fatalf("high util, slow start = %v", a)
	}
	for _, a := range []RevocationAction{ActionRedistribute, ActionReprovision, ActionAdmissionControl} {
		if a.String() == "" {
			t.Fatal("empty action string")
		}
	}
}

func TestSessionTable(t *testing.T) {
	s := NewSessionTable()
	s.Assign("u1", 1)
	s.Assign("u2", 1)
	s.Assign("u3", 2)
	if s.Len() != 3 || s.CountOn(1) != 2 {
		t.Fatalf("Len/CountOn = %d/%d", s.Len(), s.CountOn(1))
	}
	if b, ok := s.Lookup("u1"); !ok || b != 1 {
		t.Fatalf("Lookup = %d/%v", b, ok)
	}
	n := s.MigrateAll(1, func() (int, bool) { return 3, true })
	if n != 2 || s.CountOn(3) != 2 || s.CountOn(1) != 0 {
		t.Fatalf("migrated %d, on3=%d", n, s.CountOn(3))
	}
	// Failed pick leaves sessions in place.
	n = s.MigrateAll(3, func() (int, bool) { return 0, false })
	if n != 0 || s.CountOn(3) != 2 {
		t.Fatalf("failed migration moved sessions")
	}
	s.End("u1")
	if s.Len() != 2 {
		t.Fatalf("End broken, Len=%d", s.Len())
	}
	if _, ok := s.Lookup("u1"); ok {
		t.Fatal("ended session still present")
	}
}

func TestBalancerRouteAndStickiness(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1})
	id1, ok := b.Route("alice")
	if !ok {
		t.Fatal("route failed")
	}
	for i := 0; i < 5; i++ {
		id, ok := b.Route("alice")
		if !ok || id != id1 {
			t.Fatalf("sticky session broken: got %d want %d", id, id1)
		}
	}
	// Anonymous requests spread across both.
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		id, _ := b.Route("")
		seen[id] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("anonymous spread broken: %v", seen)
	}
}

func TestBalancerHandleWarningMigrates(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1, 3: 1})
	// Pin 10 sessions on backend 1.
	for i := 0; i < 30; i++ {
		b.Route(fmt.Sprintf("s%d", i))
	}
	on1 := b.Sessions.CountOn(1)
	if on1 == 0 {
		t.Fatal("no sessions landed on 1")
	}
	action, migrated := b.HandleWarning(1, 0.5, 60, 120)
	if action != ActionRedistribute {
		t.Fatalf("action = %v", action)
	}
	if migrated != on1 || b.Sessions.CountOn(1) != 0 {
		t.Fatalf("migrated %d of %d", migrated, on1)
	}
	if !b.Draining(1) {
		t.Fatal("backend 1 should be draining")
	}
	// New requests avoid the draining backend.
	for i := 0; i < 20; i++ {
		id, ok := b.Route("")
		if !ok || id == 1 {
			t.Fatalf("routed to draining backend")
		}
	}
	b.CompleteDrain(1)
	if b.Draining(1) || b.WRR.Len() != 2 {
		t.Fatal("CompleteDrain failed")
	}
}

func TestBalancerVanillaIgnoresWarnings(t *testing.T) {
	b := NewBalancer()
	b.Vanilla = true
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1})
	b.Route("u")
	cur, _ := b.Sessions.Lookup("u")
	action, migrated := b.HandleWarning(cur, 0.5, 60, 120)
	if migrated != 0 || action != ActionAdmissionControl {
		t.Fatalf("vanilla should ignore warnings: %v/%d", action, migrated)
	}
	// Vanilla keeps routing the session to the (about to die) backend.
	id, ok := b.Route("u")
	if !ok || id != cur {
		t.Fatalf("vanilla sticky = %d/%v, want %d", id, ok, cur)
	}
}

func TestUpdatePortfolioRemovesStale(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 2})
	b.UpdatePortfolio(map[int]float64{2: 1, 3: 1})
	ids := backendIDs(b.WRR)
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("Backends = %v", ids)
	}
}

func TestWeightsProportionalRouting(t *testing.T) {
	// Weights proportional to heterogeneous capacities: a 4:2:1 portfolio
	// must spread anonymous load 4:2:1.
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{10: 4, 20: 2, 30: 1})
	counts := map[int]int{}
	const n = 7000
	for i := 0; i < n; i++ {
		id, _ := b.Route("")
		counts[id]++
	}
	if math.Abs(float64(counts[10])/n-4.0/7) > 0.01 ||
		math.Abs(float64(counts[20])/n-2.0/7) > 0.01 ||
		math.Abs(float64(counts[30])/n-1.0/7) > 0.01 {
		t.Fatalf("counts = %v, want 4:2:1", counts)
	}
}

func TestRouteNoBackends(t *testing.T) {
	b := NewBalancer()
	if _, ok := b.Route("x"); ok {
		t.Fatal("route with no backends should fail")
	}
}

func TestMigrateOffIsLoadAware(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 100, 2: 100, 3: 100})
	// Pre-load backend 1 with many sessions; backend 3 will drain.
	for i := 0; i < 90; i++ {
		b.Sessions.Assign(fmt.Sprintf("pre%d", i), 1)
	}
	for i := 0; i < 60; i++ {
		b.Sessions.Assign(fmt.Sprintf("vic%d", i), 3)
	}
	// High utilization ⇒ soft drain, no migration yet.
	action, migrated := b.HandleWarning(3, 0.95, 60, 120)
	if action == ActionRedistribute || migrated != 0 {
		t.Fatalf("expected deferred migration, got %v/%d", action, migrated)
	}
	if b.Sessions.CountOn(3) != 60 {
		t.Fatal("sessions left the soft-draining backend early")
	}
	// Replacements ready: migrate. Backend 2 (empty) must absorb far more
	// than backend 1 (already loaded).
	n := b.MigrateOff(3)
	if n != 60 {
		t.Fatalf("migrated %d, want 60", n)
	}
	on1, on2 := b.Sessions.CountOn(1), b.Sessions.CountOn(2)
	if on2 <= on1-90 { // backend 2 should catch up toward balance
		t.Fatalf("migration not load-aware: on1=%d on2=%d", on1, on2)
	}
	if on2 < 55 {
		t.Fatalf("empty backend should absorb most sessions, got %d", on2)
	}
}

func TestSoftDrainKeepsServingSessions(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1})
	b.Route("u") // bind
	cur, _ := b.Sessions.Lookup("u")
	// High utilization ⇒ soft drain: the session stays on its backend.
	b.HandleWarning(cur, 0.95, 60, 120)
	id, ok := b.Route("u")
	if !ok || id != cur {
		t.Fatalf("session should keep its soft-draining backend: %d/%v want %d", id, ok, cur)
	}
	// But new sessions avoid it.
	for i := 0; i < 10; i++ {
		id, ok := b.Route(fmt.Sprintf("new%d", i))
		if !ok || id == cur {
			t.Fatal("new session bound to soft-draining backend")
		}
	}
	// After CompleteDrain the session has been migrated off.
	b.CompleteDrain(cur)
	id, ok = b.Route("u")
	if !ok || id == cur {
		t.Fatalf("session not migrated at drain completion: %d/%v", id, ok)
	}
}

// backendIDs returns the registered backend ids in ascending order.
func backendIDs(w *SmoothWRR) []int {
	var ids []int
	for _, e := range w.table().ents {
		ids = append(ids, e.id)
	}
	return ids
}
