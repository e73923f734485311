package chaos

import (
	"reflect"
	"testing"
)

// fedStyleScenario mirrors the topology the federated runner compiles: two
// regions of three markets each, a block copula correlation, a region-targeted
// storm, a cross-region Prob storm and a region outage.
func fedStyleScenario() *Scenario {
	corr := make([][]float64, 6)
	for i := range corr {
		corr[i] = make([]float64, 6)
		for j := range corr[i] {
			switch {
			case i == j:
				corr[i][j] = 1
			case i/3 == j/3:
				corr[i][j] = 0.8
			default:
				corr[i][j] = 0.25
			}
		}
	}
	return &Scenario{
		Name: "fed-style",
		RegionMap: map[string][]int{
			"aws/us-east-1": {0, 1, 2},
			"azure/eastus":  {3, 4, 5},
		},
		Correlation: corr,
		Faults: []FaultSpec{
			{Kind: KindStorm, Start: 0.2, Region: "aws/us-east-1", WarnScale: ptr(1)},
			{Kind: KindStorm, Start: 0.5, Prob: 0.4, WarnScale: ptr(1)},
			{Kind: KindRegionOutage, Start: 0.45, Duration: 0.3, Region: "aws/us-east-1", WarnScale: ptr(0.3)},
		},
	}
}

// TestRegionStormDeterminism is the cross-region copula determinism property:
// the same (scenario, seed) pair must compile a byte-identical fault timeline,
// storm victim sets included.
func TestRegionStormDeterminism(t *testing.T) {
	sc := fedStyleScenario()
	a, err := Compile(sc, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(sc, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (scenario, seed) must compile identical injectors")
	}
	if !reflect.DeepEqual(a.Revocations(0, 1), b.Revocations(0, 1)) {
		t.Fatal("storm victim sets must be deterministic")
	}
	// The copula draw must respond to the seed (probabilistic: across 20 seeds
	// at prob 0.4 at least one victim set must differ).
	base := a.Revocations(0.49, 0.51)
	changed := false
	for s := int64(1); s <= 20 && !changed; s++ {
		c, err := Compile(sc, s, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Revocations(0.49, 0.51), base) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("cross-region copula draw ignored the seed")
	}
}

func TestRegionTargetsExpand(t *testing.T) {
	in, err := Compile(fedStyleScenario(), 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The region storm at 0.2 must target exactly the mapped markets, sorted.
	revs := in.Revocations(0.15, 0.25)
	if len(revs) != 1 || !reflect.DeepEqual(revs[0].Markets, []int{0, 1, 2}) {
		t.Fatalf("region storm revocations = %+v", revs)
	}
	if revs[0].Count != 0 {
		t.Fatal("region-targeted storms must not fall back to Count")
	}
	// The outage opens a blackout over the region for [0.45, 0.75).
	for _, m := range []int{0, 1, 2} {
		if ws, dark := in.Blackout(0.6, m); !dark || ws != 0.3 {
			t.Fatalf("Blackout(0.6, %d) = %g/%v, want 0.3/true", m, ws, dark)
		}
		if _, dark := in.Blackout(0.8, m); dark {
			t.Fatalf("market %d still dark after the window", m)
		}
		if _, dark := in.Blackout(0.4, m); dark {
			t.Fatalf("market %d dark before the window", m)
		}
	}
	for _, m := range []int{3, 4, 5} {
		if _, dark := in.Blackout(0.6, m); dark {
			t.Fatalf("market %d in the surviving region is dark", m)
		}
	}
}

// TestEmptyRegionInjectsNothing is the zero-live-markets boundary case: a
// region mapped to an empty market list must inject no storms and no blackout
// (an empty span filter would otherwise mean "all markets").
func TestEmptyRegionInjectsNothing(t *testing.T) {
	sc := &Scenario{
		Name:      "ghost-region",
		RegionMap: map[string][]int{"ghost": {}},
		Faults: []FaultSpec{
			{Kind: KindStorm, Start: 0.2, Region: "ghost", WarnScale: ptr(1)},
			{Kind: KindRegionOutage, Start: 0.4, Duration: 0.4, Region: "ghost", WarnScale: ptr(0)},
		},
	}
	in, err := Compile(sc, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Revocations(0.15, 0.25); len(got) != 1 || len(got[0].Markets) != 0 || got[0].Count != 0 {
		t.Fatalf("empty-region storm must stay empty (no Count fallback), got %+v", got)
	}
	if len(in.revs) != 1 {
		t.Fatalf("outage over an empty region must inject nothing, have %d events", len(in.revs))
	}
	for m := 0; m < 6; m++ {
		if _, dark := in.Blackout(0.6, m); dark {
			t.Fatalf("empty-region outage blacked out market %d", m)
		}
	}
}

func TestRegionValidationAndBounds(t *testing.T) {
	// A region absent from the map must fail at compile.
	sc := &Scenario{
		Name:      "missing-region",
		RegionMap: map[string][]int{"a": {0}},
		Faults:    []FaultSpec{{Kind: KindStorm, Start: 0.2, Region: "b"}},
	}
	if _, err := Compile(sc, 1, 6); err == nil {
		t.Fatal("storm targeting an unmapped region must not compile")
	}
	// A region mapping outside the catalog must fail at compile.
	sc = &Scenario{
		Name:      "oob-region",
		RegionMap: map[string][]int{"a": {0, 99}},
		Faults:    []FaultSpec{{Kind: KindRegionOutage, Start: 0.2, Duration: 0.2, Region: "a", WarnScale: ptr(0.5)}},
	}
	if _, err := Compile(sc, 1, 6); err == nil {
		t.Fatal("region mapping outside the catalog must not compile")
	}
	// An outage without a region, duration or a sane warn scale is invalid.
	for _, bad := range []FaultSpec{
		{Kind: KindRegionOutage, Start: 0.2, Duration: 0.2, WarnScale: ptr(0.5)},
		{Kind: KindRegionOutage, Start: 0.2, Region: "a", WarnScale: ptr(0.5)},
		{Kind: KindRegionOutage, Start: 0.2, Duration: 0.2, Region: "a", WarnScale: ptr(1.5)},
	} {
		sc := &Scenario{Name: "bad-outage", RegionMap: map[string][]int{"a": {0}}, Faults: []FaultSpec{bad}}
		if err := sc.Validate(); err == nil {
			t.Fatalf("spec %+v should not validate", bad)
		}
	}
}
