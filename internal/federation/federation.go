package federation

import (
	"fmt"

	"repro/internal/market"
)

// Config parameterizes a federation build.
type Config struct {
	// Providers are the provider kinds regions are assigned to round-robin
	// (default ["aws", "azure"]).
	Providers []string
	// Regions is the total number of regions across all providers.
	Regions int
	// AZsPerRegion is the number of availability zones (= planner shards)
	// per region (default 1).
	AZsPerRegion int
	// TypesPerAZ is the number of transient market types per AZ (default 6).
	TypesPerAZ int
	// Hours and SamplesPerHour size every AZ catalog.
	Hours          int
	SamplesPerHour int
	// IncludeOnDemand adds an on-demand twin per transient market.
	IncludeOnDemand bool
	Seed            int64
}

func (c Config) withDefaults() Config {
	if len(c.Providers) == 0 {
		c.Providers = []string{"aws", "azure"}
	}
	if c.Regions <= 0 {
		c.Regions = 4
	}
	if c.AZsPerRegion <= 0 {
		c.AZsPerRegion = 1
	}
	if c.TypesPerAZ <= 0 {
		c.TypesPerAZ = 6
	}
	if c.Hours <= 0 {
		c.Hours = 24 * 7
	}
	if c.SamplesPerHour <= 0 {
		c.SamplesPerHour = 1
	}
	return c
}

// Shard is one AZ's slice of the federation: its own catalog (the unit of
// planner sharding) plus its global index range in the merged catalog.
type Shard struct {
	// Region is the catalog-qualified region name, e.g. "aws/us-east-1".
	Region    string
	RegionIdx int
	AZ        int
	Cat       *market.Catalog
	// [Lo, Hi) is this shard's global market index range in Merged.
	Lo, Hi int
}

// Name returns the shard's display name, e.g. "aws/us-east-1/az0".
func (s Shard) Name() string { return fmt.Sprintf("%s/az%d", s.Region, s.AZ) }

// MarketRef resolves a global market index back to its shard-local identity.
type MarketRef struct {
	Region string
	AZ     int
}

// Federation is the merged multi-provider market view. Merged shares
// *market.Market pointers with the shard catalogs, so per-market identity is
// preserved: the risk overlay, the estimator and the simulator address
// markets by global index while each shard solver sees only its own slice.
// Demand-pool groups are renumbered globally (AZ-local pools stay disjoint
// across shards), so natural revocation correlation never crosses an AZ —
// cross-region correlation is injected exclusively by the chaos copula.
type Federation struct {
	Shards []Shard
	// Regions holds the catalog-qualified region names in build order.
	Regions []string
	// Merged is the global catalog: the concatenation of every shard's
	// markets, in shard order.
	Merged *market.Catalog

	refs []MarketRef
}

// Build constructs the federation: round-robin region→provider assignment,
// one deterministic catalog per (region, AZ), and the merged global view.
func Build(cfg Config) (*Federation, error) {
	c := cfg.withDefaults()
	provs := make([]Provider, len(c.Providers))
	for i, kind := range c.Providers {
		p, err := New(kind, c.Seed)
		if err != nil {
			return nil, err
		}
		provs[i] = p
	}

	f := &Federation{}
	groupOffset := 0
	for r := 0; r < c.Regions; r++ {
		prov := provs[r%len(provs)]
		perProv := (c.Regions + len(provs) - 1) / len(provs)
		regionName := prov.Regions(perProv)[r/len(provs)]
		qualified := prov.Name() + "/" + regionName
		f.Regions = append(f.Regions, qualified)
		for az := 0; az < c.AZsPerRegion; az++ {
			cat := prov.Catalog(regionName, az, c.TypesPerAZ, c.Hours, c.SamplesPerHour, c.IncludeOnDemand)
			sh := Shard{
				Region:    qualified,
				RegionIdx: r,
				AZ:        az,
				Cat:       cat,
			}
			if f.Merged == nil {
				f.Merged = &market.Catalog{StepHrs: cat.StepHrs, Intervals: cat.Intervals}
			}
			sh.Lo = len(f.Merged.Markets)
			// Renumber demand-pool groups into a global namespace. On-demand
			// markets keep Group = -1 (never in a pool).
			maxGroup := -1
			for _, m := range cat.Markets {
				if m.Group >= 0 {
					if m.Group > maxGroup {
						maxGroup = m.Group
					}
					m.Group += groupOffset
				}
				f.Merged.Markets = append(f.Merged.Markets, m)
				f.refs = append(f.refs, MarketRef{Region: qualified, AZ: az})
			}
			groupOffset += maxGroup + 1
			sh.Hi = len(f.Merged.Markets)
			f.Shards = append(f.Shards, sh)
		}
	}
	if err := f.Merged.Validate(); err != nil {
		return nil, fmt.Errorf("federation: merged catalog: %w", err)
	}
	return f, nil
}

// Len returns the total number of markets in the merged view.
func (f *Federation) Len() int { return len(f.refs) }

// RegionMap returns region name → global market indices, the shape the
// chaos layer's region-targeted faults consume (Scenario.RegionMap).
func (f *Federation) RegionMap() map[string][]int {
	out := make(map[string][]int, len(f.Regions))
	for _, sh := range f.Shards {
		for i := sh.Lo; i < sh.Hi; i++ {
			out[sh.Region] = append(out[sh.Region], i)
		}
	}
	return out
}

// CorrelationMatrix builds the block copula correlation the chaos layer uses
// for cross-region storms: intraAZ within a shard, intraRegion across AZs of
// one region, cross everywhere else, 1 on the diagonal. The blocks follow
// the merged catalog's market order.
func (f *Federation) CorrelationMatrix(intraAZ, intraRegion, cross float64) [][]float64 {
	n := f.Len()
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		ri := f.refs[i]
		for j := 0; j < n; j++ {
			switch rj := f.refs[j]; {
			case i == j:
				mat[i][j] = 1
			case ri.Region == rj.Region && ri.AZ == rj.AZ:
				mat[i][j] = intraAZ
			case ri.Region == rj.Region:
				mat[i][j] = intraRegion
			default:
				mat[i][j] = cross
			}
		}
	}
	return mat
}
