package lb

// Concurrency tests: routing traffic racing weight updates, drain marks,
// migrations and drain completions. Run under -race they check the one lock
// covers every path.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestDecideRevocationBoundaries pins the decision procedure's edge cases:
// utilization exactly at the threshold still redistributes (the survivors can
// — just barely — absorb the load), a start delay exactly equal to the
// warning cannot reprovision in time, and a zero-length warning always means
// admission control.
func TestDecideRevocationBoundaries(t *testing.T) {
	cases := []struct {
		name                                string
		util, highUtil, startDelay, warning float64
		want                                RevocationAction
	}{
		{"util exactly at threshold", 0.85, 0.85, 55, 120, ActionRedistribute},
		{"just above threshold", 0.8500001, 0.85, 55, 120, ActionReprovision},
		{"start delay equals warning", 0.9, 0.85, 120, 120, ActionAdmissionControl},
		{"start delay just under warning", 0.9, 0.85, 119.999, 120, ActionReprovision},
		{"zero warning", 0.9, 0.85, 55, 0, ActionAdmissionControl},
		{"zero warning and zero delay", 0.9, 0.85, 0, 0, ActionAdmissionControl},
	}
	for _, tc := range cases {
		if got := DecideRevocation(tc.util, tc.highUtil, tc.startDelay, tc.warning); got != tc.want {
			t.Errorf("%s: DecideRevocation(%g,%g,%g,%g) = %v, want %v",
				tc.name, tc.util, tc.highUtil, tc.startDelay, tc.warning, got, tc.want)
		}
	}
}

// TestConcurrentRevocationsNeverStrandSessions revokes two overlapping
// backend sets concurrently — with live routing traffic binding new sessions
// throughout — and asserts no session ends up mapped to a backend that has
// completed its drain: a migration off one backend must never re-home
// sessions onto a member of the other set after that member's final sweep.
func TestConcurrentRevocationsNeverStrandSessions(t *testing.T) {
	const rounds = 40
	for round := 0; round < rounds; round++ {
		b := NewBalancer()
		for id := 0; id < 10; id++ {
			b.SetWeight(id, 1)
		}
		// Pre-bind sessions across every backend so each revoked backend has
		// load to migrate.
		for i := 0; i < 200; i++ {
			assign(b, fmt.Sprintf("pre-%d", i), i%10)
		}

		setA := []int{0, 1, 2, 3}
		setB := []int{2, 3, 4, 5}

		var wg sync.WaitGroup
		revoke := func(set []int) {
			defer wg.Done()
			for _, id := range set {
				// Low utilization → redistribute (immediate hard drain + migration).
				b.HandleWarning(id, 0.4, 55, 120)
			}
			for _, id := range set {
				b.CompleteDrain(id)
			}
		}
		wg.Add(2)
		go revoke(setA)
		go revoke(setB)

		// Live traffic binding new sessions during the revocations.
		wg.Add(2)
		for g := 0; g < 2; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					b.Route(fmt.Sprintf("live-%d-%d-%d", round, g, i))
				}
			}(g)
		}
		wg.Wait()

		revoked := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
		for id := range revoked {
			if n := b.SessionsOn(id); n != 0 {
				t.Fatalf("round %d: %d session(s) stranded on terminated backend %d", round, n, id)
			}
			if b.Has(id) {
				t.Fatalf("round %d: terminated backend %d still in rotation", round, id)
			}
		}
		// Survivors must carry all the pre-bound sessions.
		total := 0
		for id := 6; id < 10; id++ {
			total += b.SessionsOn(id)
		}
		if total < 200 {
			t.Fatalf("round %d: only %d of 200 pre-bound sessions survive on live backends", round, total)
		}
	}
}

// TestActionOverrideForcesDecision exercises the chaos hook: a forced
// admission-control action must take the soft-drain path even at low
// utilization, and an ok=false override must leave the normal decision alone.
func TestActionOverrideForcesDecision(t *testing.T) {
	b := NewBalancer()
	for id := 0; id < 3; id++ {
		b.SetWeight(id, 1)
	}
	b.ActionOverride = func() (RevocationAction, bool) { return ActionAdmissionControl, true }
	action, _ := b.HandleWarning(0, 0.2, 55, 120)
	if action != ActionAdmissionControl {
		t.Fatalf("forced action = %v", action)
	}
	if !b.Draining(0) {
		t.Fatal("backend 0 should be draining")
	}

	b.ActionOverride = func() (RevocationAction, bool) { return ActionAdmissionControl, false }
	action, _ = b.HandleWarning(1, 0.2, 55, 120)
	if action != ActionRedistribute {
		t.Fatalf("ok=false override changed the decision: %v", action)
	}
}

// TestSmoothWRRConcurrency races picks against weight updates.
func TestSmoothWRRConcurrency(t *testing.T) {
	b := NewBalancer()
	for i := 0; i < 4; i++ {
		b.SetWeight(i, float64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Route("")
				if i%100 == 0 {
					b.SetWeight(g%4, float64(i%5))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentEpochSwapsNeverResurrect hammers Route from reader
// goroutines while a writer cycles backend 99 in and out of rotation among
// other weight updates. After the writer's final removal of 99 it flips a
// fence; any route that starts after the fence and still returns 99 read a
// stale weight set.
func TestConcurrentEpochSwapsNeverResurrect(t *testing.T) {
	b := NewBalancer()
	for id := 0; id < 8; id++ {
		b.SetWeight(id, float64(1+id%3))
	}

	var fence, stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				fenced := fence.Load() // read BEFORE the route starts
				if id, ok := b.Route(""); ok && fenced && id == 99 {
					t.Error("route started after final removal returned backend 99")
					return
				}
			}
		}()
	}

	for round := 0; round < 200; round++ {
		b.SetWeight(99, 5)
		b.SetWeight(7, float64(1+round%4))
		b.SetWeight(99, 0)
	}
	b.Remove(99)
	fence.Store(true)
	for i := 0; i < 10000; i++ {
		b.Route("")
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentSessionTableChurn hammers the session paths — routing,
// unbinding and counting — from many goroutines beside two racing
// migrations off backend 0; once quiesced, one final migration must fully
// clear it.
func TestConcurrentSessionTableChurn(t *testing.T) {
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{0: 1, 1: 1, 2: 1, 3: 1})
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := fmt.Sprintf("w%d-%d", g, i%100)
				switch i % 4 {
				case 0, 1:
					b.Route(s)
				case 2:
					b.EndSession(s)
				default:
					b.SessionsOn(g % 4)
				}
			}
		}(g)
	}
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				b.MigrateOff(0)
			}
		}()
	}
	wg.Wait()
	b.MigrateOff(0)
	if n := b.SessionsOn(0); n != 0 {
		t.Fatalf("%d sessions remain on backend 0 after final migration", n)
	}
}

// TestMigrateAllSkipsConcurrentlyMovedSessions ends sessions while a
// migration runs beside it: an ended session must stay ended, never be
// re-bound by the migration.
func TestMigrateAllSkipsConcurrentlyMovedSessions(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := NewBalancer()
		b.UpdatePortfolio(map[int]float64{1: 1, 2: 1})
		for i := 0; i < 100; i++ {
			assign(b, fmt.Sprintf("s%d", i), 1)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.EndSession(fmt.Sprintf("s%d", i))
			}
		}()
		go func() {
			defer wg.Done()
			b.MigrateOff(1)
		}()
		wg.Wait()
		if n := b.SessionCount(); n != 0 {
			t.Fatalf("round %d: %d ended sessions resurrected", round, n)
		}
	}
}

// TestStressRouteDuringRepublish drives mixed sticky/anonymous traffic while
// a planner goroutine keeps swapping between two portfolios and a chaos
// goroutine re-marks a backend soft-draining. Every route must land on a
// backend of the rotating universe, and routing must never fail while
// backends remain.
func TestStressRouteDuringRepublish(t *testing.T) {
	b := NewBalancer()
	planA := map[int]float64{}
	planB := map[int]float64{}
	for id := 0; id < 12; id++ {
		planA[id] = float64(1 + id%5)
		if id >= 2 { // plan B drops backends 0 and 1
			planB[id] = float64(2 + id%3)
		}
	}
	b.UpdatePortfolio(planA)

	var stop atomic.Bool
	var mutators, routers sync.WaitGroup
	mutators.Add(2)
	go func() {
		defer mutators.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				b.UpdatePortfolio(planB)
			} else {
				b.UpdatePortfolio(planA)
			}
		}
	}()
	go func() {
		defer mutators.Done()
		for !stop.Load() {
			setDrain(b, 5, false)
			b.UpdatePortfolio(planA)
		}
	}()

	var failures atomic.Int64
	for g := 0; g < 6; g++ {
		routers.Add(1)
		go func(g int) {
			defer routers.Done()
			for i := 0; i < 20000; i++ {
				session := ""
				if i%3 == 0 {
					session = fmt.Sprintf("g%d-s%d", g, i%64)
				}
				id, ok := b.Route(session)
				if !ok {
					failures.Add(1)
					continue
				}
				if id < 0 || id >= 12 {
					t.Errorf("routed to impossible backend %d", id)
					return
				}
			}
		}(g)
	}
	routers.Wait()
	stop.Store(true)
	mutators.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d route failures under republish churn", f)
	}
}

// TestStressMigrationStorm overlaps many warning→migrate→complete lifecycles
// with live traffic and admission control enabled: a soft-drain storm (high
// utilization → reprovision) racing a hard-drain storm (low utilization →
// redistribute), with sessions bound throughout. Terminal invariants: no
// sessions on terminated backends, every terminated backend out of rotation.
func TestStressMigrationStorm(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := NewBalancer()
		b.SetAdmission(NewTokenBucket(1e9, 1<<20)) // effectively-open bucket on the hot path
		for id := 0; id < 12; id++ {
			b.SetWeight(id, 1)
		}
		for i := 0; i < 300; i++ {
			assign(b, fmt.Sprintf("pre-%d", i), i%12)
		}

		var wg sync.WaitGroup
		storm := func(victims []int, util float64) {
			defer wg.Done()
			for _, id := range victims {
				b.HandleWarning(id, util, 55, 120)
			}
			for _, id := range victims {
				b.CompleteDrain(id)
			}
		}
		wg.Add(2)
		go storm([]int{0, 1, 2}, 0.4)  // redistribute path
		go storm([]int{3, 4, 5}, 0.95) // reprovision (soft) path

		wg.Add(3)
		for g := 0; g < 3; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					b.Route(fmt.Sprintf("live-%d-%d-%d", round, g, i))
					b.Route("") // anonymous alongside
				}
			}(g)
		}
		wg.Wait()

		for id := 0; id < 6; id++ {
			if n := b.SessionsOn(id); n != 0 {
				t.Fatalf("round %d: %d sessions stranded on terminated backend %d", round, n, id)
			}
			if b.Has(id) {
				t.Fatalf("round %d: terminated backend %d still in rotation", round, id)
			}
		}
		total := 0
		for id := 6; id < 12; id++ {
			total += b.SessionsOn(id)
		}
		if total < 300 {
			t.Fatalf("round %d: only %d of 300 pre-bound sessions survive", round, total)
		}
	}
}

// TestConcurrentRouteMetricsConsistency routes under concurrency with
// metrics attached and checks the registry's route series count exactly the
// observed outcomes.
func TestConcurrentRouteMetricsConsistency(t *testing.T) {
	reg := metrics.NewRegistry()
	b := NewBalancer()
	b.UpdatePortfolio(map[int]float64{1: 1, 2: 2, 3: 1})
	b.SetMetrics(reg)

	const workers, perWorker = 8, 5000
	var okCount, stickyMax atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := ""
				if i%2 == 0 {
					s = fmt.Sprintf("g%d-%d", g, i%32)
					stickyMax.Add(1)
				}
				if _, ok := b.Route(s); ok {
					okCount.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	series := func(name, result string) int64 {
		if result == "" {
			return reg.Counter(name, "").Value()
		}
		return reg.Counter(name, "", metrics.L("result", result)).Value()
	}
	if got := series("spotweb_lb_route_total", "ok"); got != okCount.Load() {
		t.Fatalf("spotweb_lb_route_total{ok} = %d, routed %d", got, okCount.Load())
	}
	if d := series("spotweb_lb_route_total", "dropped"); d != 0 {
		t.Fatalf("dropped = %d with a full rotation", d)
	}
	// Each of the 32 sessions per worker binds once; every later sticky
	// request is a hit.
	if got, want := series("spotweb_lb_sticky_hits_total", ""), stickyMax.Load()-workers*16; got != want {
		t.Fatalf("spotweb_lb_sticky_hits_total = %d, want %d", got, want)
	}
}
