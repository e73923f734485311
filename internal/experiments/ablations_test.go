package experiments

import (
	"io"
	"testing"
)

func TestAblationChurnShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := AblationChurn(io.Discard, quick)
	// No penalty must churn the most.
	if res.Launches[0] <= res.Launches[2] {
		t.Fatalf("κ=0 launches %d should exceed κ=1 launches %d",
			res.Launches[0], res.Launches[2])
	}
	// A moderate penalty must beat no penalty on cost under hourly billing.
	if res.Costs[2] >= res.Costs[0] {
		t.Fatalf("κ=1 cost %v should beat κ=0 cost %v", res.Costs[2], res.Costs[0])
	}
}

func TestAblationPaddingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := AblationPadding(io.Discard, quick)
	// Violations must fall monotonically with the CI level.
	if !(res.ViolationPct[0] > res.ViolationPct[1] && res.ViolationPct[1] > res.ViolationPct[2]) {
		t.Fatalf("violations not decreasing with CI: %v", res.ViolationPct)
	}
	// 99% CI keeps the spiky workload near the 5–10%% band the paper allows.
	if res.ViolationPct[2] > 15 {
		t.Fatalf("99%%-CI violations %v too high", res.ViolationPct[2])
	}
}

func TestAblationLongRequests(t *testing.T) {
	res := AblationLongRequests(io.Discard, quick)
	first, last := res.MeanFailProb[0], res.MeanFailProb[len(res.MeanFailProb)-1]
	// At L = 0 the cheap failure-prone markets win; at L = 1 the Eq. 4
	// failure term pushes the portfolio onto the stable markets.
	if first < 0.15 {
		t.Fatalf("L=0 portfolio should ride the risky markets, fail prob %v", first)
	}
	if last > 0.05 {
		t.Fatalf("L=1 portfolio should move to stable markets, fail prob %v", last)
	}
	// The objective grows monotonically with L (the term only adds cost).
	for i := 1; i < len(res.Cost); i++ {
		if res.Cost[i] < res.Cost[i-1]-1e-9 {
			t.Fatalf("objective not monotone in L: %v", res.Cost)
		}
	}
}

func TestDiscussionStartupDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := DiscussionStartupDelay(io.Discard, quick)
	// §7's claim: with boot time > decision interval, some horizon > 1 must
	// beat H = 1 on cost.
	best := res.Costs[0]
	for _, c := range res.Costs[1:] {
		if c < best {
			best = c
		}
	}
	if best >= res.Costs[0] {
		t.Fatalf("longer look-ahead should help with slow start-up: H=1 cost %v, best %v",
			res.Costs[0], best)
	}
}

func TestDiscussionGoogleCloud(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res := DiscussionGoogleCloud(io.Discard, quick)
	if res.SavingsPct < 30 {
		t.Fatalf("Google-regime savings %v%% too low", res.SavingsPct)
	}
	if res.ViolationPct > 5 {
		t.Fatalf("Google-regime violations %v%% exceed SLO budget", res.ViolationPct)
	}
	if res.Revocations == 0 {
		t.Fatal("24 h lifetime should force revocations")
	}
}
