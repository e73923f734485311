package testbed

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lb"
	"repro/internal/metrics"
)

// TestRevokeDecidesOnceForAllVictims: every victim of one revocation is
// decided on the same utilization, the offered rate over the survivors' ready
// capacity. Four 100 req/s backends lose two under 150 req/s: the two
// survivors run at 0.75, below the 0.85 threshold, so both victims
// redistribute and no replacement starts.
func TestRevokeDecidesOnceForAllVictims(t *testing.T) {
	j := metrics.NewJournal(64)
	c := NewCluster(ClusterConfig{Backend: fastBackendCfg(), Warning: time.Second, Journal: j})
	defer c.Close()
	for i := 0; i < 4; i++ {
		c.AddBackend(100)
	}
	c.RevokeWithWarning([]int{0, 1}, 150, time.Second)
	var actions []string
	for _, ev := range j.Events() {
		if ev.Type == metrics.EvDrainStart {
			actions = append(actions, ev.Detail)
		}
	}
	want := lb.ActionRedistribute.String()
	if len(actions) != 2 || actions[0] != want || actions[1] != want {
		t.Fatalf("victim actions = %v, want both %s", actions, want)
	}
	if n := j.Counts()[metrics.EvReplacementStarted]; n != 0 {
		t.Fatalf("%d replacements started at utilization 0.75", n)
	}
}

// TestLifecycleLaws drives random ScaleTo and RevokeWithWarning sequences,
// with millisecond boots, warnings and gaps, and holds the journal to the
// lifecycle laws a serving run's ledger is checked on:
//   - every revocation warning ends in a termination with reason revoked;
//   - every drain that starts completes;
//   - a backend drained or warned while it boots never joins rotation.
//
// Revocations pick any ID launched so far, so they also hit booting,
// draining and terminated backends. The laws hold on a transiency-aware
// cluster and on a vanilla one.
func TestLifecycleLaws(t *testing.T) {
	for _, vanilla := range []bool{false, true} {
		t.Run(map[bool]string{false: "aware", true: "vanilla"}[vanilla], func(t *testing.T) {
			checkLifecycleLaws(t, vanilla)
		})
	}
}

// checkLifecycleLaws runs TestLifecycleLaws' sequences on a transiency-aware
// or a vanilla cluster. A vanilla balancer ignores warnings, so its
// revocations start no drain and complete none, while its scale-downs, which
// are no revocations, start and complete theirs.
func checkLifecycleLaws(t *testing.T, vanilla bool) {
	caps := []float64{100, 60}
	var warned, leftBooting int
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		j := metrics.NewJournal(1 << 14)
		c := NewCluster(ClusterConfig{
			Backend: BackendConfig{BaseServiceTime: time.Millisecond, StartDelay: 3 * time.Millisecond,
				WarmupDur: 2 * time.Millisecond},
			Warning: 4 * time.Millisecond,
			Journal: j,
			Vanilla: vanilla,
		})
		scaled := 0 // backends ScaleTo launched; replacements are journaled
		for op := 0; op < 40; op++ {
			if launched := scaled + int(j.Counts()[metrics.EvReplacementStarted]); rng.Intn(3) == 0 && launched > 0 {
				ids := []int{rng.Intn(launched), rng.Intn(launched)}
				warning := time.Duration(rng.Intn(3)) * 2 * time.Millisecond
				c.RevokeWithWarning(ids, 150*rng.Float64(), warning)
			} else {
				started, _ := c.ScaleTo([]int{rng.Intn(4), rng.Intn(3)}, caps)
				scaled += started
			}
			time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		}
		// Let every pending boot, warm-up and drain fall due.
		for deadline := time.Now().Add(2 * time.Second); ; {
			c.mu.Lock()
			next := c.fleet.Next()
			c.mu.Unlock()
			if math.IsInf(next, 1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: a transition is still pending at fleet time %v", seed, next)
			}
			time.Sleep(time.Millisecond)
		}
		c.Close()

		counts := j.Counts()
		var revoked int64
		booting := map[int]bool{} // drained or warned before joining
		joined := map[int]bool{}
		for _, ev := range j.Events() {
			switch ev.Type {
			case metrics.EvBackendTerminated:
				if ev.Detail == "revoked" {
					revoked++
				}
			case metrics.EvScaleDown, metrics.EvWarning:
				if !joined[ev.Backend] {
					booting[ev.Backend] = true
				}
			case metrics.EvBackendUp, metrics.EvReplacementUp:
				if booting[ev.Backend] {
					t.Fatalf("seed %d: backend %d joined rotation after it was drained while booting", seed, ev.Backend)
				}
				joined[ev.Backend] = true
			}
		}
		if w := counts[metrics.EvWarning]; w != revoked {
			t.Fatalf("seed %d: %d warnings, %d terminations as revoked", seed, w, revoked)
		}
		if s, d := counts[metrics.EvDrainStart], counts[metrics.EvDrainComplete]; s != d {
			t.Fatalf("seed %d: %d drains started, %d completed", seed, s, d)
		}
		warned += int(counts[metrics.EvWarning])
		leftBooting += len(booting)
	}
	// The laws are only as good as the cases they saw.
	if warned == 0 || leftBooting == 0 {
		t.Fatalf("the sequences warned %d backends and drained %d while booting; want both > 0", warned, leftBooting)
	}
	t.Logf("%d warnings, %d backends drained or warned while booting", warned, leftBooting)
}
