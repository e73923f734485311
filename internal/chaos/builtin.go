package chaos

import (
	"fmt"
	"sort"
)

func ptr(f float64) *float64 { return &f }

// builtins is the standing scenario suite. The timings assume the standard
// chaos workload shape (low utilization through the first third of the run,
// high utilization from mid-run on), so the storm scenario walks the LB
// through all three revocation responses: an early low-load storm
// redistributes, a mid-run storm at high load reprovisions, and a
// short-warning storm at high load forces admission control.
var builtins = map[string]*Scenario{
	"storm": {
		Name:        "storm",
		Description: "correlated revocation storms at rising utilization: redistribute, then reprovision, then admission control",
		Faults: []FaultSpec{
			{Kind: KindStorm, Start: 0.15, Count: 1, WarnScale: ptr(1)},
			{Kind: KindStorm, Start: 0.55, Count: 2, WarnScale: ptr(1)},
			{Kind: KindStorm, Start: 0.80, Count: 2, WarnScale: ptr(0.3)},
		},
	},
	"late-warning": {
		Name:        "late-warning",
		Description: "revocations under delayed and then fully lost warnings",
		Faults: []FaultSpec{
			{Kind: KindWarningDelay, Start: 0.35, Duration: 0.3, Severity: 0.4},
			{Kind: KindStorm, Start: 0.45, Count: 2, WarnScale: ptr(1)},
			{Kind: KindWarningLoss, Start: 0.7, Duration: 0.25},
			{Kind: KindStorm, Start: 0.8, Count: 2, WarnScale: ptr(1)},
		},
	},
	"price-spike": {
		Name:        "price-spike",
		Description: "a market-wide price spike that invalidates the current plan, plus a mid-spike revocation",
		Faults: []FaultSpec{
			{Kind: KindPriceSpike, Start: 0.35, Duration: 0.4, Severity: 3},
			{Kind: KindStorm, Start: 0.5, Count: 1, WarnScale: ptr(1)},
		},
	},
	"flap": {
		Name:        "flap",
		Description: "capacity flapping (square-wave slowdown) with a storm landing mid-flap",
		Faults: []FaultSpec{
			{Kind: KindFlap, Start: 0.3, Duration: 0.55, Period: 0.1, Severity: 0.5},
			{Kind: KindStorm, Start: 0.6, Count: 1, WarnScale: ptr(1)},
		},
	},
	"combined": {
		Name:        "combined",
		Description: "everything at once: copula storm, price spike, slowdown, start-delay jitter, lost warnings",
		Correlation: [][]float64{
			{1.0, 0.8, 0.8, 0.2, 0.2, 0.2},
			{0.8, 1.0, 0.8, 0.2, 0.2, 0.2},
			{0.8, 0.8, 1.0, 0.2, 0.2, 0.2},
			{0.2, 0.2, 0.2, 1.0, 0.7, 0.7},
			{0.2, 0.2, 0.2, 0.7, 1.0, 0.7},
			{0.2, 0.2, 0.2, 0.7, 0.7, 1.0},
		},
		Faults: []FaultSpec{
			{Kind: KindStartJitter, Start: 0.3, Duration: 0.6, Severity: 1},
			{Kind: KindPriceSpike, Start: 0.4, Duration: 0.2, Severity: 2.5},
			{Kind: KindStorm, Start: 0.5, Prob: 0.6, WarnScale: ptr(1)},
			{Kind: KindSlowdown, Start: 0.55, Duration: 0.15, Severity: 0.7},
			{Kind: KindWarningLoss, Start: 0.75, Duration: 0.15},
			{Kind: KindStorm, Start: 0.8, Count: 2, WarnScale: ptr(1)},
		},
	},
	// The federation-level scenario: a full-region outage. The runner builds
	// a 4-region federation (see runner.NewEnv), overrides RegionMap with
	// the federation's real index map, installs the federation's block
	// correlation matrix and appends a copula-sampled cross-region storm at
	// peak load. The default RegionMap below matches the runner's federation
	// so the scenario also compiles standalone; the early full-warning storm
	// teaches the risk estimator that us-east-1 is deteriorating before the
	// outage takes the whole region dark at high load with 30% warning.
	"region-outage": {
		Name:        "region-outage",
		Description: "full outage of one federated region: an early teaching storm, then the region goes dark for a third of the run with 30% warning while correlated revocations bleed into its neighbors",
		RegionMap: map[string][]int{
			"aws/us-east-1": {0, 1, 2, 3, 4, 5},
			"azure/eastus":  {6, 7, 8, 9, 10, 11},
			"aws/us-west-2": {12, 13, 14, 15, 16, 17},
			"azure/westus2": {18, 19, 20, 21, 22, 23},
		},
		Faults: []FaultSpec{
			{Kind: KindStorm, Start: 0.2, Region: "aws/us-east-1", WarnScale: ptr(1)},
			{Kind: KindRegionOutage, Start: 0.45, Duration: 0.35, Region: "aws/us-east-1", WarnScale: ptr(0.3)},
		},
	},
	// The two lying-catalog scenarios run in adaptive-vs-oracle-prior
	// comparison mode (see CatalogLie): the runner uses its wider lie
	// catalog (6 instance types × 3 demand pools; transient markets at even
	// indices, type i in group i%3, so group 0 = markets 0 and 6) and
	// scores a risk-estimator planner against one that trusts the declared
	// priors. Storms target the deceitful pool explicitly — a planner that
	// has learned the pool's true rate sidesteps them.
	// Both lie scenarios follow the same arc: an early full-warning storm on
	// the deceitful pool teaches the estimator (and costs the oracle little —
	// load is still low), then the pool turns hostile exactly when it hurts:
	// a warning-loss window opens over the sustained high-load phase, so the
	// pool's elevated NATURAL revocations land with zero notice, and two more
	// storms hit the pool inside that window with no warning at all. A
	// planner still allocated there eats unannounced capacity holes at peak;
	// one that has learned the pool's true rate has already left.
	"stale-catalog": {
		Name:        "stale-catalog",
		Description: "the catalog's revocation priors are a stale snapshot: one demand pool's actual rates run 6x the declared interval-0 values, plus unannounced storms on that pool at peak load",
		CatalogLie:  &CatalogLie{Stale: true, ActualScale: 6, Groups: []int{0}},
		Faults: []FaultSpec{
			{Kind: KindStorm, Start: 0.2, Markets: []int{0, 6}, WarnScale: ptr(1)},
			{Kind: KindPriceSpike, Start: 0.55, Duration: 0.45, Severity: 1.6, Markets: []int{0, 6}},
			{Kind: KindWarningLoss, Start: 0.6, Duration: 0.35},
			{Kind: KindStorm, Start: 0.65, Markets: []int{0, 6}, WarnScale: ptr(0)},
			{Kind: KindStorm, Start: 0.75, Markets: []int{0, 6}, WarnScale: ptr(0)},
			{Kind: KindStorm, Start: 0.85, Markets: []int{0, 6}, WarnScale: ptr(0)},
		},
	},
	"adversarial-prior": {
		Name:        "adversarial-prior",
		Description: "an adversarial catalog declares p=0.001 everywhere while one demand pool actually revokes at p=0.18, with unannounced storms on that pool at peak load",
		CatalogLie:  &CatalogLie{DeclaredFailProb: 0.001, ActualFailProb: 0.18, Groups: []int{0}},
		Faults: []FaultSpec{
			{Kind: KindStorm, Start: 0.2, Markets: []int{0, 6}, WarnScale: ptr(1)},
			{Kind: KindPriceSpike, Start: 0.55, Duration: 0.45, Severity: 1.6, Markets: []int{0, 6}},
			{Kind: KindWarningLoss, Start: 0.6, Duration: 0.35},
			{Kind: KindStorm, Start: 0.65, Markets: []int{0, 6}, WarnScale: ptr(0)},
			{Kind: KindStorm, Start: 0.75, Markets: []int{0, 6}, WarnScale: ptr(0)},
			{Kind: KindStorm, Start: 0.85, Markets: []int{0, 6}, WarnScale: ptr(0)},
		},
	},
}

// BuiltinNames returns the built-in scenario names, sorted.
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Builtin returns a copy of a built-in scenario by name.
func Builtin(name string) (*Scenario, error) {
	sc, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown built-in scenario %q (have %v)", name, BuiltinNames())
	}
	cp := *sc
	return &cp, nil
}
