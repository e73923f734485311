package federation

import (
	"flag"
	"strings"
)

// Flags is the shared -federation/-regions flag group used by spotwebd and
// spotweb-sim, mirroring the risk.BindFlags pattern so the binaries don't
// each grow a private copy.
type Flags struct {
	On        bool
	Regions   int
	AZs       int
	Types     int
	Providers string
	Rounds    int
	// Parallelism bounds the shard-solve worker pool
	// (PlannerConfig.Parallelism).
	Parallelism int
}

// BindFlags registers the federation flag group on fs. Call before
// flag.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.On, "federation", false,
		"plan over a multi-provider multi-region market federation (hierarchically sharded planner)")
	fs.IntVar(&f.Regions, "regions", 4, "federated regions (round-robin across providers)")
	fs.IntVar(&f.AZs, "fed-azs", 1, "availability zones (planner shards) per region")
	fs.IntVar(&f.Types, "fed-types", 6, "transient market types per AZ")
	fs.StringVar(&f.Providers, "fed-providers", "aws,azure", "comma-separated provider kinds")
	fs.IntVar(&f.Rounds, "fed-rounds", 0, "budget-split coordination rounds (0 = default 3)")
	fs.IntVar(&f.Parallelism, "parallelism", 0, "shard-solve worker bound: 0/1 serial, n>1 up to n workers, <0 all cores")
	return f
}

// Enabled reports whether -federation was set.
func (f *Flags) Enabled() bool { return f != nil && f.On }

// Build constructs the federation the flags describe.
func (f *Flags) Build(seed int64, hours int, includeOnDemand bool) (*Federation, error) {
	var provs []string
	for _, p := range strings.Split(f.Providers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			provs = append(provs, p)
		}
	}
	return Build(Config{
		Providers:       provs,
		Regions:         f.Regions,
		AZsPerRegion:    f.AZs,
		TypesPerAZ:      f.Types,
		Hours:           hours,
		IncludeOnDemand: includeOnDemand,
		Seed:            seed,
	})
}

// PlannerConfig translates the flags into a sharded-planner config (the
// portfolio config is filled by the caller).
func (f *Flags) PlannerConfig() PlannerConfig {
	return PlannerConfig{CoordRounds: f.Rounds, Parallelism: f.Parallelism}
}
