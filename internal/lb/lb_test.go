package lb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// next picks in the vanilla view (every positive-weight backend).
// Draining reports whether a backend is draining (hard or soft).
func (b *Balancer) Draining(backend int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	i, ok := b.findLocked(backend)
	return ok && (b.ents[i].hard || b.ents[i].soft)
}

// Has reports whether a backend is registered (in rotation or draining).
func (b *Balancer) Has(id int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.findLocked(id)
	return ok
}

// SessionsOn returns the number of sessions bound to a backend.
func (b *Balancer) SessionsOn(backend int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, id := range b.sessions {
		if id == backend {
			n++
		}
	}
	return n
}

func next(b *Balancer) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextLocked(viewAll)
}

// assign binds a session to a backend directly.
func assign(b *Balancer, session string, id int) {
	b.mu.Lock()
	b.sessions[session] = id
	b.mu.Unlock()
}

// lookup returns a session's binding.
func lookup(b *Balancer, session string) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id, ok := b.sessions[session]
	return id, ok
}

// setDrain marks a registered backend hard- or soft-draining.
func setDrain(b *Balancer, id int, hard bool) {
	b.mu.Lock()
	b.markLocked(id, hard)
	b.mu.Unlock()
}

// backendIDs returns the registered backend ids in ascending order.
func backendIDs(b *Balancer) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ids []int
	for _, e := range b.ents {
		ids = append(ids, e.id)
	}
	return ids
}

func countPicks(t *testing.T, b *Balancer, n int) map[int]int {
	t.Helper()
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		id, ok := next(b)
		if !ok {
			t.Fatalf("pick %d: no backend", i)
		}
		counts[id]++
	}
	return counts
}

func TestSmoothWRRProportions(t *testing.T) {
	b := NewBalancer()
	b.SetWeight(1, 3)
	b.SetWeight(2, 1)
	if counts := countPicks(t, b, 4000); counts[1] != 3000 || counts[2] != 1000 {
		t.Fatalf("counts = %v, want 3:1", counts)
	}
}

func TestSmoothWRRSmoothness(t *testing.T) {
	// With weights 1:1:1 the scheduler must rotate, never sending two
	// consecutive requests to the same backend.
	b := NewBalancer()
	for i := 1; i <= 3; i++ {
		b.SetWeight(i, 1)
	}
	prev := -1
	for i := 0; i < 100; i++ {
		id, _ := next(b)
		if id == prev {
			t.Fatalf("consecutive picks of backend %d", id)
		}
		prev = id
	}
}

func TestSmoothWRROnlineWeightUpdate(t *testing.T) {
	b := NewBalancer()
	b.SetWeight(1, 1)
	b.SetWeight(2, 1)
	// Shift all weight to 2.
	b.SetWeight(1, 0)
	for i := 0; i < 10; i++ {
		id, ok := next(b)
		if !ok || id != 2 {
			t.Fatalf("pick = %d/%v, want 2", id, ok)
		}
	}
	if ents := b.ents; len(ents) != 2 || ents[0].weight != 0 || ents[1].weight != 1 {
		t.Fatalf("entries = %+v", ents)
	}
}

func TestSmoothWRREmptyAndRemove(t *testing.T) {
	b := NewBalancer()
	if _, ok := next(b); ok {
		t.Fatal("empty scheduler should fail")
	}
	b.SetWeight(5, 1)
	if !b.Remove(5) {
		t.Fatal("Remove failed")
	}
	if b.Remove(5) {
		t.Fatal("double Remove should fail")
	}
	if _, ok := next(b); ok {
		t.Fatal("scheduler should be empty again")
	}
	if b.Has(5) {
		t.Fatal("removed backend still registered")
	}
}

// TestSmoothWRRNegativeWeightPanics covers every weight that would poison
// the float scores: negative, NaN and infinite.
func TestSmoothWRRNegativeWeightPanics(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetWeight(%v): expected panic", w)
				}
			}()
			NewBalancer().SetWeight(1, w)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("UpdatePortfolio(%v): expected panic", w)
				}
			}()
			NewBalancer().UpdatePortfolio(map[int]float64{1: 1, 2: w})
		}()
	}
}

func TestBackendsSorted(t *testing.T) {
	b := NewBalancer()
	b.SetWeight(3, 1)
	b.SetWeight(1, 1)
	b.SetWeight(2, 1)
	ids := backendIDs(b)
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("Backends = %v", ids)
	}
}

// TestWRRDistributionMatchesSerial checks pick shares over whole cycles:
// exactly proportional for integer weight ratios, within 0.5 % for
// fractional ones.
func TestWRRDistributionMatchesSerial(t *testing.T) {
	cases := []struct {
		name    string
		weights map[int]float64
		picks   int
		exact   bool
	}{
		{"3:1", map[int]float64{1: 3, 2: 1}, 4000, true},
		{"4:2:1", map[int]float64{1: 4, 2: 2, 3: 1}, 7000, true},
		{"uniform", map[int]float64{1: 1, 2: 1, 3: 1, 4: 1}, 4000, true},
		{"scaled floats", map[int]float64{10: 25, 20: 50, 30: 40, 40: 25, 50: 50, 60: 40}, 4600, true},
		{"fractional", map[int]float64{1: 2.5, 2: 1.5, 3: 1.0}, 50000, false},
		{"irrational-ish", map[int]float64{1: math.Pi, 2: math.E, 3: 1.0}, 50000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBalancer()
			b.UpdatePortfolio(tc.weights)
			got := countPicks(t, b, tc.picks)
			var total float64
			for _, w := range tc.weights {
				total += w
			}
			for id, w := range tc.weights {
				want := float64(tc.picks) * w / total
				if tc.exact && float64(got[id]) != want {
					t.Errorf("backend %d: %d picks, want %g", id, got[id], want)
				}
				if math.Abs(float64(got[id])-want) > 0.005*float64(tc.picks) {
					t.Errorf("backend %d: %d picks, want %g ± 0.5 %%", id, got[id], want)
				}
			}
		})
	}
}

// TestWRRSmoothnessMatchesSerial pins the interleaving, not just the totals:
// weights 5:1:1 give nginx's documented smooth sequence a a b a c a a.
func TestWRRSmoothnessMatchesSerial(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 5, 2: 1, 3: 1})
	want := []int{1, 1, 2, 1, 3, 1, 1}
	for i := 0; i < 3*len(want); i++ {
		if got, _ := next(b); got != want[i%len(want)] {
			t.Fatalf("pick %d: chose %d, want %d", i, got, want[i%len(want)])
		}
	}
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

// TestDecisionOutcomesMatchOnGrid sweeps the §6.1 decision space and checks
// HandleWarning returns exactly DecideRevocation at each grid point.
func TestDecisionOutcomesMatchOnGrid(t *testing.T) {
	utils := []float64{0.1, 0.5, 0.84, 0.85, 0.86, 0.99}
	delays := []float64{10, 55, 119, 120, 200}
	warnings := []float64{0, 60, 120}
	for _, u := range utils {
		for _, d := range delays {
			for _, w := range warnings {
				b := NewBalancer()
				b.SetWeight(1, 1)
				b.SetWeight(2, 1)
				action, _ := b.HandleWarning(1, u, d, w)
				if want := DecideRevocation(u, b.HighUtil, d, w); action != want {
					t.Errorf("u=%g delay=%g warn=%g: got %v, want %v", u, d, w, action, want)
				}
			}
		}
	}
}

func TestSessionTable(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1, 3: 1})
	assign(b, "u1", 1)
	assign(b, "u2", 1)
	assign(b, "u3", 2)
	if b.SessionCount() != 3 || b.SessionsOn(1) != 2 {
		t.Fatalf("SessionCount/SessionsOn = %d/%d", b.SessionCount(), b.SessionsOn(1))
	}
	if id, ok := b.Route("u1"); !ok || id != 1 {
		t.Fatalf("Route(u1) = %d/%v", id, ok)
	}
	b.EndSession("u1")
	if b.SessionCount() != 2 {
		t.Fatalf("EndSession broken, SessionCount=%d", b.SessionCount())
	}
	if _, ok := lookup(b, "u1"); ok {
		t.Fatal("ended session still present")
	}
}

func TestSessionTableBasics(t *testing.T) {
	b := NewBalancer()
	if b.SessionCount() != 0 {
		t.Fatalf("fresh SessionCount = %d", b.SessionCount())
	}
	assign(b, "alice", 1)
	assign(b, "bob", 2)
	assign(b, "alice", 3) // rebind
	if id, ok := lookup(b, "alice"); !ok || id != 3 {
		t.Fatalf("alice → (%d,%v), want (3,true)", id, ok)
	}
	if b.SessionCount() != 2 {
		t.Fatalf("SessionCount = %d, want 2", b.SessionCount())
	}
	if b.SessionsOn(3) != 1 || b.SessionsOn(2) != 1 || b.SessionsOn(1) != 0 {
		t.Fatalf("SessionsOn mismatch: on3=%d on2=%d on1=%d", b.SessionsOn(3), b.SessionsOn(2), b.SessionsOn(1))
	}
	b.EndSession("alice")
	b.EndSession("ghost") // no-op
	if b.SessionCount() != 1 {
		t.Fatalf("SessionCount = %d, want 1", b.SessionCount())
	}
}

// TestMigrateAllPickFailureLeavesSessionsPut: with no routable target a
// migration moves nothing.
func TestMigrateAllPickFailureLeavesSessionsPut(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1})
	assign(b, "a", 1)
	assign(b, "b", 1)
	setDrain(b, 2, false)
	if n := b.MigrateOff(1); n != 0 {
		t.Fatalf("migrated %d with no open target", n)
	}
	if b.SessionsOn(1) != 2 {
		t.Fatalf("SessionsOn(1) = %d, want 2", b.SessionsOn(1))
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
	for i := 0; i < 30; i++ {
		b.Route(fmt.Sprintf("s%d", i))
	}
	on1 := b.SessionsOn(1)
	if on1 == 0 {
		t.Fatal("no sessions landed on 1")
	}
	action, migrated := b.HandleWarning(1, 0.5, 60, 120)
	if action != ActionRedistribute {
		t.Fatalf("action = %v", action)
	}
	if migrated != on1 || b.SessionsOn(1) != 0 {
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
	if b.Draining(1) || len(backendIDs(b)) != 2 {
		t.Fatal("CompleteDrain failed")
	}
}

func TestBalancerVanillaIgnoresWarnings(t *testing.T) {
	b := NewBalancer()
	b.Vanilla = true
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 1})
	b.Route("u")
	cur, _ := lookup(b, "u")
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

// TestRetireLeavesRotation: a scale-down's victim leaves rotation in both
// modes — its sessions move, no request reaches it, sticky or not — and its
// drain is journaled from start to completion, vanilla too.
func TestRetireLeavesRotation(t *testing.T) {
	for _, vanilla := range []bool{false, true} {
		b := NewBalancer()
		b.Vanilla = vanilla
		b.Journal = metrics.NewJournal(64)
		b.UpdatePortfolio(map[int]float64{1: 1, 2: 1, 3: 1})
		for i := 0; i < 30; i++ {
			b.Route(fmt.Sprintf("s%d", i))
		}
		on1 := b.SessionsOn(1)
		if on1 == 0 {
			t.Fatalf("vanilla=%v: no sessions landed on 1", vanilla)
		}
		if moved := b.Retire(1); moved != on1 || b.SessionsOn(1) != 0 {
			t.Fatalf("vanilla=%v: moved %d of %d sessions", vanilla, moved, on1)
		}
		for i := 0; i < 60; i++ {
			if id, ok := b.Route(fmt.Sprintf("s%d", i%40)); !ok || id == 1 {
				t.Fatalf("vanilla=%v: routed to the retired backend (%d, %v)", vanilla, id, ok)
			}
			if id, ok := b.Route(""); !ok || id == 1 {
				t.Fatalf("vanilla=%v: routed to the retired backend (%d, %v)", vanilla, id, ok)
			}
		}
		b.CompleteDrain(1)
		c := b.Journal.Counts()
		if c[metrics.EvDrainStart] != 1 || c[metrics.EvDrainComplete] != 1 {
			t.Fatalf("vanilla=%v: %d drains started, %d completed, want 1 and 1",
				vanilla, c[metrics.EvDrainStart], c[metrics.EvDrainComplete])
		}
	}
}

func TestUpdatePortfolioRemovesStale(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 2})
	b.UpdatePortfolio(map[int]float64{2: 1, 3: 1})
	ids := backendIDs(b)
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

// TestRouteAllocs holds Route allocation-free on its two steady paths, an
// anonymous pick and a sticky hit, with metrics off and on.
func TestRouteAllocs(t *testing.T) {
	for _, reg := range []*metrics.Registry{nil, metrics.NewRegistry()} {
		b := NewBalancer()
		b.SetMetrics(reg)
		b.UpdatePortfolio(map[int]float64{1: 3, 2: 1, 3: 2})
		b.Route("alice")
		if n := testing.AllocsPerRun(1000, func() { b.Route("") }); n != 0 {
			t.Errorf("metrics %v: anonymous route allocates %v per op", reg != nil, n)
		}
		if n := testing.AllocsPerRun(1000, func() { b.Route("alice") }); n != 0 {
			t.Errorf("metrics %v: sticky route allocates %v per op", reg != nil, n)
		}
	}
}

func TestMigrateOffIsLoadAware(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 100, 2: 100, 3: 100})
	// Pre-load backend 1 with many sessions; backend 3 will drain.
	for i := 0; i < 90; i++ {
		assign(b, fmt.Sprintf("pre%d", i), 1)
	}
	for i := 0; i < 60; i++ {
		assign(b, fmt.Sprintf("vic%d", i), 3)
	}
	// High utilization ⇒ soft drain, no migration yet.
	action, migrated := b.HandleWarning(3, 0.95, 60, 120)
	if action == ActionRedistribute || migrated != 0 {
		t.Fatalf("expected deferred migration, got %v/%d", action, migrated)
	}
	if b.SessionsOn(3) != 60 {
		t.Fatal("sessions left the soft-draining backend early")
	}
	// Replacements ready: migrate. Backend 2 (empty) must absorb far more
	// than backend 1 (already loaded).
	n := b.MigrateOff(3)
	if n != 60 {
		t.Fatalf("migrated %d, want 60", n)
	}
	on1, on2 := b.SessionsOn(1), b.SessionsOn(2)
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
	cur, _ := lookup(b, "u")
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

// TestEpochNoStaleReadAfterTwoSwaps performs two consecutive weight updates
// — the first takes backend 1 out of rotation, the second reweights backend
// 2 — and asserts no later pick returns backend 1.
func TestEpochNoStaleReadAfterTwoSwaps(t *testing.T) {
	b := NewBalancer()
	b.SetWeight(1, 1)
	b.SetWeight(2, 1)
	for i := 0; i < 10; i++ {
		next(b)
	}
	b.SetWeight(1, 0)
	b.SetWeight(2, 3)
	for i := 0; i < 1000; i++ {
		id, ok := next(b)
		if !ok {
			t.Fatalf("pick %d: no backend", i)
		}
		if id == 1 {
			t.Fatalf("pick %d returned backend 1, removed two updates ago", i)
		}
	}
}

// TestRouteTraceEquivalence replays a seeded trace of anonymous and sticky
// requests with two mid-trace revocations — one hard drain, one soft — and
// checks the routing invariants: bound sessions stay put while their
// backend is live, no fresh session lands on a draining backend, a
// soft-draining backend still takes anonymous traffic, and nothing is
// stranded after CompleteDrain.
func TestRouteTraceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const backends = 8
	b := NewBalancer()
	for id := 0; id < backends; id++ {
		b.SetWeight(id, float64(1+id%4))
	}

	bound := map[string]int{}
	for i := 0; i < 4000; i++ {
		switch i {
		case 1500: // low utilization: redistribute → hard drain
			if action, _ := b.HandleWarning(2, 0.4, 55, 120); action != ActionRedistribute {
				t.Fatalf("backend 2: action %v", action)
			}
		case 2500: // high utilization: reprovision → soft drain
			if action, _ := b.HandleWarning(5, 0.95, 55, 120); action != ActionReprovision {
				t.Fatalf("backend 5: action %v", action)
			}
		}
		session := ""
		if rng.Intn(10) < 7 {
			session = fmt.Sprintf("s%d", rng.Intn(300))
		}
		id, ok := b.Route(session)
		if !ok {
			t.Fatalf("request %d (%q): no backend", i, session)
		}
		if session == "" {
			continue
		}
		if prev, seen := bound[session]; seen && prev != id && b.Has(prev) && !b.Draining(prev) {
			t.Fatalf("request %d: moved live session %q: %d → %d", i, session, prev, id)
		}
		bound[session] = id
	}

	for i := 0; i < 500; i++ {
		id, ok := b.Route(fmt.Sprintf("fresh-%d", i))
		if !ok {
			t.Fatal("no backend for fresh session")
		}
		if id == 2 || id == 5 {
			t.Fatalf("fresh session landed on draining backend %d", id)
		}
	}
	saw := false
	for i := 0; i < 2000 && !saw; i++ {
		id, _ := b.Route("")
		saw = id == 5
	}
	if !saw {
		t.Fatal("soft-draining backend 5 should still take anonymous traffic")
	}

	b.CompleteDrain(2)
	if n := b.SessionsOn(2); n != 0 {
		t.Fatalf("%d sessions stranded on completed backend 2", n)
	}
	if b.Has(2) {
		t.Fatal("completed backend 2 still in rotation")
	}
}
