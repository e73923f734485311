package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lb"
	"repro/internal/metrics"
)

// newFront returns a plane over a fleet that boots in 10 s with no warm-up,
// journaling into a fresh journal.
func newFront(vanilla bool) (*Front, *lb.Balancer, *metrics.Journal) {
	j := metrics.NewJournal(256)
	bal := lb.NewBalancer()
	bal.Vanilla = vanilla
	bal.Journal = j
	return NewFront(New(10, 0), bal, j, nil), bal, j
}

// drainStarts returns the actions journaled with drain_start, in order.
func drainStarts(j *metrics.Journal) []string {
	var out []string
	for _, ev := range j.Events() {
		if ev.Type == metrics.EvDrainStart {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// TestFrontBootingDrainAddsNoCapacity: a server launched and then drained or
// warned while it still boots never boots, so it adds nothing to the
// utilization a later revocation is decided on. One booted 100 req/s server
// carries 50 req/s beside a booting one of 100; once the booting one is gone,
// revoking the booted one leaves no ready capacity: utilization +Inf, reprovision.
// Counting the booting server's capacity would read 0.5 and redistribute.
func TestFrontBootingDrainAddsNoCapacity(t *testing.T) {
	for _, drain := range []string{"retire", "revoke"} {
		t.Run(drain, func(t *testing.T) {
			f, _, j := newFront(false)
			ready := f.Launch(0, 100, -10)
			booting := f.Launch(0, 100, 0)
			f.Advance(0)
			if drain == "retire" {
				f.Retire(booting.ID, 1, 30)
			} else {
				f.Revoke([]int{booting.ID}, 50, 1, 30)
			}
			f.Advance(1)
			if got := f.ReadyCapacity(2); got != 100 {
				t.Fatalf("ready capacity = %v, want 100 (the booted server alone)", got)
			}
			got := f.Revoke([]int{ready.ID}, 50, 2, 30)
			if len(got) != 1 || got[0] != lb.ActionReprovision {
				t.Fatalf("actions = %v, want [reprovision]: a booting server drained at 1 adds no capacity", got)
			}
			if acts := drainStarts(j); acts[len(acts)-1] != lb.ActionReprovision.String() {
				t.Fatalf("journaled actions %v", acts)
			}
		})
	}
}

// TestFrontRevokeEveryServerReprovisions: a warning that takes the whole
// fleet leaves no survivor to absorb the load, so no HighUtil threshold
// redistributes it: the utilization reads +Inf and the victim is replaced.
func TestFrontRevokeEveryServerReprovisions(t *testing.T) {
	f, bal, _ := newFront(false)
	bal.HighUtil = 2.5
	f.Launch(0, 100, -10)
	f.Advance(0)
	if acts := f.Revoke([]int{0}, 50, 1, 30); len(acts) != 1 || acts[0] != lb.ActionReprovision {
		t.Fatalf("actions = %v, want [reprovision]", acts)
	}
	if _, _, launched := f.Advance(1); len(launched) != 1 {
		t.Fatalf("launched %v, want one replacement", launched)
	}
}

// TestFrontRevokeMigratesOnReplacementUp: a reprovisioned victim keeps its
// sessions until its replacement boots, and they move at that instant —
// after the replacement joins rotation and before the victim terminates.
func TestFrontRevokeMigratesOnReplacementUp(t *testing.T) {
	f, bal, j := newFront(false)
	for _, c := range []float64{20, 100, 100} {
		f.Launch(0, c, -10)
	}
	f.Advance(0)
	for i := 0; i < 30; i++ {
		bal.Route("s" + metrics.Itoa(i))
	}
	acts := f.Revoke([]int{1, 2}, 100, 5, 60)
	if len(acts) != 2 || acts[0] != lb.ActionReprovision || acts[1] != lb.ActionReprovision {
		t.Fatalf("actions = %v, want two reprovisions", acts)
	}
	if _, _, launched := f.Advance(5); len(launched) != 2 || launched[0].Capacity != 100 {
		t.Fatalf("launched %v, want two replacements of capacity 100", launched)
	}
	if n := j.Counts()[metrics.EvSessionsMigrated]; n != 0 {
		t.Fatalf("%d migrations before any replacement booted", n)
	}
	booted, _, _ := f.Advance(15)
	if len(booted) != 2 {
		t.Fatalf("booted %v at 15, want both replacements", booted)
	}
	f.Advance(65)
	var order []string
	for _, ev := range j.Events() {
		switch ev.Type {
		case metrics.EvReplacementUp, metrics.EvSessionsMigrated, metrics.EvBackendTerminated:
			order = append(order, ev.Type+":"+metrics.Itoa(ev.Backend))
		}
	}
	want := []string{"replacement_up:3", "replacement_up:4", "sessions_migrated:1", "sessions_migrated:2",
		"backend_terminated:1", "backend_terminated:2"}
	if len(order) != len(want) {
		t.Fatalf("events %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("events %v, want %v", order, want)
		}
	}
	c := j.Counts()
	if c[metrics.EvDrainComplete] != 2 || c[metrics.EvReplacementStarted] != 2 {
		t.Fatalf("counts %v", c)
	}
}

// TestFrontVanillaIgnoresWarning: a vanilla plane journals the warning and
// lets the server die at its end, but decides nothing, starts no replacement
// and keeps the dead server in rotation.
func TestFrontVanillaIgnoresWarning(t *testing.T) {
	f, bal, j := newFront(true)
	f.Launch(0, 100, -10)
	f.Launch(0, 100, -10)
	f.Advance(0)
	if acts := f.Revoke([]int{0}, 1000, 1, 5); acts != nil {
		t.Fatalf("vanilla actions %v", acts)
	}
	if _, reaped, launched := f.Advance(6); len(reaped) != 1 || len(launched) != 0 {
		t.Fatalf("reaped %v launched %v at 6", reaped, launched)
	}
	c := j.Counts()
	if c[metrics.EvWarning] != 1 || c[metrics.EvBackendTerminated] != 1 || c[metrics.EvDrainStart] != 0 ||
		c[metrics.EvDrainComplete] != 0 || c[metrics.EvReplacementStarted] != 0 {
		t.Fatalf("vanilla counts %v", c)
	}
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		id, _ := bal.Route("")
		seen[id] = true
	}
	if !seen[0] {
		t.Fatal("vanilla balancer dropped the revoked server from rotation")
	}
}

// recordingRisk records the markets of the warnings it is told of.
type recordingRisk struct{ markets []int }

func (r *recordingRisk) ObserveRevocation(mkt int, _ bool) { r.markets = append(r.markets, mkt) }

func (r *recordingRisk) ObserveInterval(int, []bool, []float64) {}

// TestFrontRiskFeedLaw: on random revocation scripts the risk observer is
// told of exactly the warnings the journal records, call for call and in
// order. A victim already draining, revoked or retired, reaches neither; a
// server still booting reaches both; an unknown ID reaches neither.
func TestFrontRiskFeedLaw(t *testing.T) {
	var draining, booting int // victims of each kind the scripts warned
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := metrics.NewJournal(1 << 14)
		bal := lb.NewBalancer()
		bal.Vanilla = rng.Intn(4) == 0
		bal.Journal = j
		obs := &recordingRisk{}
		f := NewFront(New(10, 5), bal, j, obs)
		now := 0.0
		for step := 0; step < 40; step++ {
			now += rng.Float64() * 8
			f.Advance(now)
			switch op := rng.Intn(10); {
			case op < 4:
				f.Launch(rng.Intn(4), 50+50*rng.Float64(), now)
			case op < 5:
				for _, s := range f.nodes {
					if s != nil && s.state != StateDraining {
						f.Retire(s.ID, now, 20*rng.Float64())
						break
					}
				}
			default:
				ids := make([]int, 1+rng.Intn(4)) // may repeat an ID
				for i := range ids {
					ids[i] = rng.Intn(len(f.nodes) + 2)
					if s := f.node(ids[i]); s != nil && s.state == StateDraining {
						draining++
					} else if s != nil && s.state == StateStarting {
						booting++
					}
				}
				f.Revoke(ids, 300*rng.Float64(), now, 5+30*rng.Float64())
			}
		}
		var journaled []int
		for _, ev := range j.Events() {
			if ev.Type == metrics.EvWarning {
				journaled = append(journaled, ev.Market)
			}
		}
		if len(journaled) == 0 || !slices.Equal(obs.markets, journaled) {
			t.Fatalf("seed %d: observer saw markets %v, journal warned %v", seed, obs.markets, journaled)
		}
	}
	if draining == 0 || booting == 0 {
		t.Fatalf("scripts revoked %d draining and %d booting victims: both must occur", draining, booting)
	}
}
