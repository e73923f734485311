package federation

import (
	"reflect"
	"testing"
)

func TestUnknownProviderKind(t *testing.T) {
	if _, err := New("gcp", 1); err == nil {
		t.Fatal("unknown provider kind should error")
	}
}

func TestProviderRegionsCycle(t *testing.T) {
	p, err := New("aws", 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := p.Regions(10)
	if len(rs) != 10 {
		t.Fatalf("Regions(10) returned %d names", len(rs))
	}
	if rs[0] != "us-east-1" || rs[8] != "us-east-1-x1" {
		t.Fatalf("region cycling broken: %v", rs)
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r] {
			t.Fatalf("duplicate region name %q", r)
		}
		seen[r] = true
	}
}

func TestProviderCatalogDeterministic(t *testing.T) {
	a, _ := New("azure", 7)
	b, _ := New("azure", 7)
	ca := a.Catalog("eastus", 0, 3, 24, 1, true)
	cb := b.Catalog("eastus", 0, 3, 24, 1, true)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("same (kind, seed, region, az) must yield identical catalogs")
	}
	cc := a.Catalog("eastus", 1, 3, 24, 1, true)
	if reflect.DeepEqual(ca.Markets[0].Price.Values, cc.Markets[0].Price.Values) {
		t.Fatal("different AZs must draw different price histories")
	}
}

func TestBuildShape(t *testing.T) {
	fed, err := Build(Config{Regions: 4, AZsPerRegion: 2, TypesPerAZ: 3,
		Hours: 24, IncludeOnDemand: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(fed.Shards))
	}
	wantRegions := []string{"aws/us-east-1", "azure/eastus", "aws/us-west-2", "azure/westus2"}
	if !reflect.DeepEqual(fed.Regions, wantRegions) {
		t.Fatalf("regions = %v, want %v", fed.Regions, wantRegions)
	}
	// 3 transient + 3 on-demand per AZ, 8 AZs.
	if fed.Len() != 48 || len(fed.Merged.Markets) != 48 {
		t.Fatalf("merged markets = %d, want 48", fed.Len())
	}
	// Shard ranges tile [0, Len) and share pointers with the merged view.
	next := 0
	for _, sh := range fed.Shards {
		if sh.Lo != next {
			t.Fatalf("shard %s starts at %d, want %d", sh.Name(), sh.Lo, next)
		}
		for j, m := range sh.Cat.Markets {
			if fed.Merged.Markets[sh.Lo+j] != m {
				t.Fatalf("shard %s market %d is not pointer-shared with merged", sh.Name(), j)
			}
		}
		next = sh.Hi
	}
	if next != fed.Len() {
		t.Fatalf("shards cover [0, %d), want [0, %d)", next, fed.Len())
	}
}

func TestBuildDeterministicInSeed(t *testing.T) {
	cfg := Config{Regions: 3, TypesPerAZ: 2, Hours: 24, Seed: 9}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Build(cfg)
	if !reflect.DeepEqual(a.Merged, b.Merged) {
		t.Fatal("same config must build an identical federation")
	}
	cfg.Seed = 10
	c, _ := Build(cfg)
	if reflect.DeepEqual(a.Merged.Markets[0].Price.Values, c.Merged.Markets[0].Price.Values) {
		t.Fatal("different federation seeds must draw different catalogs")
	}
}

func TestGroupsRenumberedGlobally(t *testing.T) {
	fed, err := Build(Config{Regions: 4, AZsPerRegion: 2, TypesPerAZ: 4,
		Hours: 24, IncludeOnDemand: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Demand pools must stay AZ-local after the merge: the same group id must
	// never appear in two shards, and on-demand markets keep Group = -1.
	owner := map[int]string{}
	for _, sh := range fed.Shards {
		for i := sh.Lo; i < sh.Hi; i++ {
			m := fed.Merged.Markets[i]
			if !m.Transient {
				if m.Group != -1 {
					t.Fatalf("on-demand market %d has group %d", i, m.Group)
				}
				continue
			}
			if m.Group < 0 {
				t.Fatalf("transient market %d has no group", i)
			}
			if prev, ok := owner[m.Group]; ok && prev != sh.Name() {
				t.Fatalf("group %d spans shards %s and %s", m.Group, prev, sh.Name())
			}
			owner[m.Group] = sh.Name()
		}
	}
}

func TestRegionMapCoversAllMarkets(t *testing.T) {
	fed, err := Build(Config{Regions: 4, AZsPerRegion: 2, TypesPerAZ: 2,
		Hours: 24, IncludeOnDemand: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rm := fed.RegionMap()
	if len(rm) != 4 {
		t.Fatalf("region map has %d regions, want 4", len(rm))
	}
	seen := make([]bool, fed.Len())
	for region, mkts := range rm {
		for _, i := range mkts {
			if seen[i] {
				t.Fatalf("market %d appears in two regions", i)
			}
			seen[i] = true
			if fed.refs[i].Region != region {
				t.Fatalf("market %d maps to %q but Ref says %q", i, region, fed.refs[i].Region)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("market %d missing from region map", i)
		}
	}
}

func TestCorrelationMatrixBlocks(t *testing.T) {
	fed, err := Build(Config{Regions: 2, AZsPerRegion: 2, TypesPerAZ: 2,
		Hours: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mat := fed.CorrelationMatrix(0.8, 0.6, 0.25)
	n := fed.Len()
	if len(mat) != n {
		t.Fatalf("matrix dim %d, want %d", len(mat), n)
	}
	for i := 0; i < n; i++ {
		ri := fed.refs[i]
		for j := 0; j < n; j++ {
			rj := fed.refs[j]
			want := 0.25
			switch {
			case i == j:
				want = 1
			case ri.Region == rj.Region && ri.AZ == rj.AZ:
				want = 0.8
			case ri.Region == rj.Region:
				want = 0.6
			}
			if mat[i][j] != want || mat[i][j] != mat[j][i] {
				t.Fatalf("corr[%d][%d] = %g, want %g (symmetric)", i, j, mat[i][j], want)
			}
		}
	}
}
