package lb

// Equivalence suite: the lock-free data plane must route like the
// mutex-serialized reference in serialref_test.go. The sharded WRR's
// precomputed cycles must yield the same pick proportions (exactly, for
// integer weight ratios), and the §6.1 revocation handling must produce the same decision outcomes and terminal session placement on
// identical request traces.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func countPicks(next func() (int, bool), n int, t *testing.T) map[int]int {
	t.Helper()
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		id, ok := next()
		if !ok {
			t.Fatalf("pick %d: no backend", i)
		}
		counts[id]++
	}
	return counts
}

// TestWRRDistributionMatchesSerial drives the sharded WRR and the serial
// reference over the same weight sets and compares pick shares. Integer
// weight ratios must match exactly (the published cycle reproduces the
// serial pick multiset per rotation); fractional ratios must agree within
// the quantization tolerance.
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
			sharded := NewSmoothWRR()
			serial := &serialWRR{}
			ids := make([]int, 0, len(tc.weights))
			for id := range tc.weights {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				sharded.SetWeight(id, tc.weights[id])
				serial.SetWeight(id, tc.weights[id])
			}

			got := countPicks(sharded.Next, tc.picks, t)
			want := countPicks(serial.Next, tc.picks, t)

			var total float64
			for _, w := range tc.weights {
				total += w
			}
			for _, id := range ids {
				if tc.exact {
					if got[id] != want[id] {
						t.Errorf("backend %d: sharded %d picks, serial %d", id, got[id], want[id])
					}
					continue
				}
				gotShare := float64(got[id]) / float64(tc.picks)
				wantShare := tc.weights[id] / total
				if math.Abs(gotShare-wantShare) > 0.005 {
					t.Errorf("backend %d: share %.4f, want %.4f ± 0.005", id, gotShare, wantShare)
				}
			}
		})
	}
}

// TestWRRSmoothnessMatchesSerial checks the interleaving property, not just
// the totals: over one full cycle the sharded sequence is exactly the serial
// smooth-WRR sequence, so burstiness characteristics carry over.
func TestWRRSmoothnessMatchesSerial(t *testing.T) {
	weights := map[int]float64{1: 5, 2: 1, 3: 1}
	sharded := NewSmoothWRR()
	serial := &serialWRR{}
	for _, id := range []int{1, 2, 3} {
		sharded.SetWeight(id, weights[id])
		serial.SetWeight(id, weights[id])
	}
	const cycle = 7 // 5+1+1
	for i := 0; i < 3*cycle; i++ {
		got, _ := sharded.Next()
		want, _ := serial.Next()
		if got != want {
			t.Fatalf("pick %d: sharded chose %d, serial chose %d", i, got, want)
		}
	}
}

// routeTrace replays an identical request trace — anonymous and sticky mixed
// with mid-trace revocations — through both routers and compares outcomes.
type traceEvent struct {
	session string // "" = anonymous request
	revoke  int    // >= 0: HandleWarning on this backend before the request
	util    float64
}

func buildTrace(rng *rand.Rand, n, sessions int) []traceEvent {
	tr := make([]traceEvent, n)
	for i := range tr {
		tr[i].revoke = -1
		if rng.Intn(10) < 7 {
			tr[i].session = fmt.Sprintf("s%d", rng.Intn(sessions))
		}
	}
	return tr
}

// TestRouteTraceEquivalence replays one trace through the sharded Balancer
// and the serial reference router and checks the properties that define
// routing equivalence: identical §6.1 decision outcomes, identical sticky
// behaviour (bound sessions stay put in both), and identical terminal
// placement rules after a drain completes (no traffic, no sessions on the
// revoked backend in either).
func TestRouteTraceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const backends = 8

	b := NewBalancer()
	r := newSerialRouter()
	for id := 0; id < backends; id++ {
		w := float64(1 + id%4)
		b.WRR.SetWeight(id, w)
		r.wrr.SetWeight(id, w)
	}

	trace := buildTrace(rng, 4000, 300)
	// Mid-trace: revoke backend 2 at low utilization (redistribute → hard
	// drain) and backend 5 at high utilization (reprovision → soft drain).
	trace[1500].revoke, trace[1500].util = 2, 0.4
	trace[2500].revoke, trace[2500].util = 5, 0.95

	shardedBound := map[string]int{}
	serialBound := map[string]int{}
	for i, ev := range trace {
		if ev.revoke >= 0 {
			action, _ := b.HandleWarning(ev.revoke, ev.util, 55, 120)
			want := DecideRevocation(ev.util, b.HighUtil, 55, 120)
			if action != want {
				t.Fatalf("event %d: sharded decision %v, want %v", i, action, want)
			}
			// Mirror the decision onto the serial router the way the old
			// Balancer did: redistribute = hard drain, reprovision = soft.
			r.setDrain(ev.revoke, action == ActionRedistribute)
			continue
		}

		gotID, gotOK := b.Route(ev.session)
		wantID, wantOK := r.Route(ev.session)
		if gotOK != wantOK {
			t.Fatalf("event %d (%q): sharded ok=%v, serial ok=%v", i, ev.session, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		if ev.session == "" {
			continue
		}
		// Sticky invariant, checked independently per router: once bound, a
		// session keeps its backend until a revocation moves it.
		if prev, seen := shardedBound[ev.session]; seen && prev != gotID {
			if b.WRR.Has(prev) && !b.Draining(prev) {
				t.Fatalf("event %d: sharded moved live session %q: %d → %d", i, ev.session, prev, gotID)
			}
		}
		if prev, seen := serialBound[ev.session]; seen && prev != wantID {
			if r.wrr.Has(prev) && !r.draining[prev] {
				t.Fatalf("event %d: serial moved live session %q: %d → %d", i, ev.session, prev, wantID)
			}
		}
		shardedBound[ev.session] = gotID
		serialBound[ev.session] = wantID
	}

	// Hard-drained backend 2 must carry no traffic in either router.
	for id, router := range map[string]func(string) (int, bool){"sharded": b.Route, "serial": r.Route} {
		for i := 0; i < 500; i++ {
			got, ok := router(fmt.Sprintf("fresh-%s-%d", id, i))
			if !ok {
				t.Fatalf("%s: no backend for fresh session", id)
			}
			if got == 2 {
				t.Fatalf("%s: fresh session landed on hard-draining backend 2", id)
			}
			if got == 5 {
				t.Fatalf("%s: new session bound to soft-draining backend 5", id)
			}
		}
	}

	// Soft-drained backend 5 still serves anonymous traffic in both.
	sawSharded, sawSerial := false, false
	for i := 0; i < 2000; i++ {
		if id, _ := b.Route(""); id == 5 {
			sawSharded = true
		}
		if id, _ := r.Route(""); id == 5 {
			sawSerial = true
		}
	}
	if !sawSharded || !sawSerial {
		t.Fatalf("soft-draining backend 5 should still take anonymous traffic (sharded=%v serial=%v)", sawSharded, sawSerial)
	}

	// After CompleteDrain the sharded balancer strands nothing on backend 2.
	b.CompleteDrain(2)
	if n := b.Sessions.CountOn(2); n != 0 {
		t.Fatalf("%d sessions stranded on completed backend 2", n)
	}
	if b.WRR.Has(2) {
		t.Fatal("completed backend 2 still in rotation")
	}
}

// TestDecisionOutcomesMatchOnGrid sweeps the §6.1 decision space and checks
// the Balancer's HandleWarning (on the sharded plane) returns exactly
// DecideRevocation for each grid point — the decision logic is untouched by
// the data-plane refactor.
func TestDecisionOutcomesMatchOnGrid(t *testing.T) {
	utils := []float64{0.1, 0.5, 0.84, 0.85, 0.86, 0.99}
	delays := []float64{10, 55, 119, 120, 200}
	warnings := []float64{0, 60, 120}
	for _, u := range utils {
		for _, d := range delays {
			for _, w := range warnings {
				b := NewBalancer()
				b.WRR.SetWeight(1, 1)
				b.WRR.SetWeight(2, 1)
				action, _ := b.HandleWarning(1, u, d, w)
				if want := DecideRevocation(u, b.HighUtil, d, w); action != want {
					t.Errorf("u=%g delay=%g warn=%g: got %v, want %v", u, d, w, action, want)
				}
			}
		}
	}
}
