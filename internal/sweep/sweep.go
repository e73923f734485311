// Package sweep is the scenario lab: it expands a declarative grid —
// scenarios × seeds × planner/simulator variants — into cells, runs every
// cell through the chaos runner, and aggregates the resulting resilience,
// cost, SLO and recovery surfaces into one versioned JSON artifact.
//
// Three properties drive the design:
//
//  1. Per-cell reproducibility. Each cell's seed is FNV-derived from its
//     grid coordinates (SeedFor), and every cell executes on exactly the
//     code path a standalone run uses (runner.Run), so RunCell reproduces
//     any cell of any sweep byte-for-byte without re-running the grid.
//
//  2. Shared immutable inputs. All cells at one seed index share one
//     standard market.Catalog, and each (scenario, seed) pair compiles its
//     chaos timeline into a runner.Env exactly once; workers reuse one
//     sim.Scratch each, so the steady-state hot path allocates nothing.
//
//  3. Deterministic artifacts. The artifact contains no wall-clock data and
//     cells are emitted in grid order, so the same grid produces the same
//     bytes at any worker count — including across a kill and resume from a
//     checkpoint. Engine throughput (cells/sec) is reported separately via
//     Stats.
package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/runcfg"
)

// Schema identifies the artifact encoding; bump on incompatible change.
const Schema = "spotweb-sweep/v1"

// Variant is one named planner/simulator configuration axis of the grid.
// The Config's Seed and Quick fields are ignored inside a sweep — the cell
// coordinates determine the seed and the grid determines the run length —
// so a variant describes only how the system is configured, not what it
// runs on.
type Variant struct {
	Name   string           `json:"name"`
	Config runcfg.RunConfig `json:"config"`
}

// Grid declares a sweep: the cross product of Scenarios × Seeds × Variants.
type Grid struct {
	// Name labels the sweep in the artifact and monitor UI.
	Name string `json:"name"`
	// Scenarios are chaos scenario names (built-in or JSON file paths, via
	// chaos.Resolve). Must be unique — they are a cell coordinate.
	Scenarios []string `json:"scenarios"`
	// Seeds is the size of the seed axis: seed indices 0..Seeds-1, each
	// mapped to a concrete simulator seed by SeedFor(BaseSeed, idx).
	Seeds int `json:"seeds"`
	// BaseSeed offsets the whole seed axis; 0 is a valid base.
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Variants are the configurations swept at every (scenario, seed).
	// Names must be unique — they are a cell coordinate.
	Variants []Variant `json:"variants"`
	// Quick selects the CI-sized run length (36 intervals instead of 96).
	Quick bool `json:"quick,omitempty"`
	// Hours, when positive, overrides the run length outright, and SubSteps
	// the within-interval resolution (default 60) — the knobs benchmark
	// grids use to trade fidelity for cell throughput.
	Hours    int `json:"hours,omitempty"`
	SubSteps int `json:"sub_steps,omitempty"`
	// KeepReports embeds each cell's full encoded chaos report in the
	// artifact (large; meant for small grids and byte-identity tests).
	KeepReports bool `json:"keep_reports,omitempty"`
}

// hours is the effective run length of the grid's cells.
func (g Grid) hours() int {
	if g.Hours > 0 {
		return g.Hours
	}
	return runner.ScenarioHours(g.Quick)
}

// CellCount returns the total number of cells the grid expands to.
func (g Grid) CellCount() int { return len(g.Scenarios) * g.Seeds * len(g.Variants) }

// Validate checks the grid is well-formed: non-empty axes and unique
// coordinate names.
func (g Grid) Validate() error {
	if len(g.Scenarios) == 0 || g.Seeds <= 0 || len(g.Variants) == 0 {
		return fmt.Errorf("sweep: grid needs at least one scenario, seed and variant (have %d×%d×%d)",
			len(g.Scenarios), g.Seeds, len(g.Variants))
	}
	seen := map[string]bool{}
	for _, s := range g.Scenarios {
		if s == "" || seen[s] {
			return fmt.Errorf("sweep: scenario names must be unique and non-empty (%q)", s)
		}
		seen[s] = true
	}
	clear(seen)
	for _, v := range g.Variants {
		if v.Name == "" || seen[v.Name] {
			return fmt.Errorf("sweep: variant names must be unique and non-empty (%q)", v.Name)
		}
		seen[v.Name] = true
	}
	if g.Hours < 0 || g.SubSteps < 0 {
		return fmt.Errorf("sweep: negative Hours/SubSteps")
	}
	return nil
}

// cellIndex is the flat artifact position of a cell: scenario-major, then
// seed, then variant — the order Cells is emitted in.
func (g Grid) cellIndex(scenIdx, seedIdx, varIdx int) int {
	return (scenIdx*g.Seeds+seedIdx)*len(g.Variants) + varIdx
}

// SeedFor derives the simulator seed of seed index idx: an FNV-1a hash of
// the base seed and the index, masked positive. The scenario and variant
// coordinates deliberately do NOT enter the hash — all cells at one seed
// index share a catalog and a fault-free baseline, which is what lets the
// engine build each catalog once and amortize one baseline leg across every
// scenario of a (seed, variant) pair.
func SeedFor(baseSeed int64, idx int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "spotweb-sweep|%d|%d", baseSeed, idx)
	s := int64(h.Sum64() & math.MaxInt64)
	if s == 0 {
		s = 1
	}
	return s
}

// BuiltinVariants is the standard variant axis: the paper configuration and
// the HA/risk extensions the repo's experiments compare against it.
func BuiltinVariants() []Variant {
	return []Variant{
		{Name: "default"},
		{Name: "sentinel", Config: runcfg.RunConfig{Sentinel: true}},
		{Name: "anchor", Config: runcfg.RunConfig{AnchorMin: 0.3}},
		{Name: "sentinel-anchor", Config: runcfg.RunConfig{Sentinel: true, AnchorMin: 0.3}},
		{Name: "risk", Config: runcfg.RunConfig{Risk: true}},
	}
}

// BuiltinVariant returns the named built-in variant.
func BuiltinVariant(name string) (Variant, error) {
	for _, v := range BuiltinVariants() {
		if v.Name == name {
			return v, nil
		}
	}
	names := make([]string, 0, 5)
	for _, v := range BuiltinVariants() {
		names = append(names, v.Name)
	}
	return Variant{}, fmt.Errorf("sweep: unknown built-in variant %q (have %v)", name, names)
}

// StandardSuiteScenarios are the built-in chaos scenarios that run on the
// standard catalog and so share one fault-free baseline per (seed, variant)
// — the scenario axis of the benchmark grid.
func StandardSuiteScenarios() []string {
	return []string{"combined", "flap", "late-warning", "price-spike", "storm"}
}

// ChaosSuiteGrid is the canonical benchmark grid: the 5 standard suite
// scenarios × seeds × the 5 built-in variants. seeds = 40 yields the
// 1,000-cell sweep BENCH_sweep.json tracks.
func ChaosSuiteGrid(seeds int, quick bool) Grid {
	return Grid{
		Name:      "chaos-suite",
		Scenarios: StandardSuiteScenarios(),
		Seeds:     seeds,
		Variants:  BuiltinVariants(),
		Quick:     quick,
	}
}

// CellRef is the coordinate triple identifying one cell of a grid.
type CellRef struct {
	Scenario string `json:"scenario"`
	SeedIdx  int    `json:"seed_idx"`
	Variant  string `json:"variant"`
}

// CellResult is the scored outcome of one cell — the report fields the
// surfaces aggregate, plus (optionally) the full encoded report.
type CellResult struct {
	CellRef
	Seed                int64           `json:"seed"`
	Score               float64         `json:"score"`
	SLOAttainmentPct    float64         `json:"slo_attainment_pct"`
	ViolationPct        float64         `json:"violation_pct"`
	DropFraction        float64         `json:"drop_fraction"`
	CostUSD             float64         `json:"cost_usd"`
	BaselineCostUSD     float64         `json:"baseline_cost_usd"`
	CostDeltaPct        float64         `json:"cost_delta_pct"`
	RecoverySecs        float64         `json:"recovery_secs"`
	RecoveryEpisodes    int             `json:"recovery_episodes"`
	Restarts            int             `json:"restarts,omitempty"`
	InjectedRevocations int             `json:"injected_revocations"`
	NaturalRevocations  int             `json:"natural_revocations"`
	Report              json.RawMessage `json:"report,omitempty"`
}

// toCellResult distills a finalized report into a cell row.
func toCellResult(ref CellRef, seed int64, rep *chaos.Report, keep bool) (CellResult, error) {
	cr := CellResult{
		CellRef:             ref,
		Seed:                seed,
		Score:               rep.Score,
		SLOAttainmentPct:    rep.SLOAttainmentPct,
		ViolationPct:        rep.ViolationPct,
		DropFraction:        rep.DropFraction,
		CostUSD:             rep.CostUSD,
		BaselineCostUSD:     rep.BaselineCostUSD,
		CostDeltaPct:        rep.CostDeltaPct,
		RecoverySecs:        rep.RecoverySecs,
		RecoveryEpisodes:    rep.RecoveryEpisodes,
		Restarts:            rep.Restarts,
		InjectedRevocations: rep.InjectedRevocations,
		NaturalRevocations:  rep.NaturalRevocations,
	}
	if keep {
		b, err := rep.EncodeJSON()
		if err != nil {
			return cr, fmt.Errorf("sweep: encode report for %v: %w", ref, err)
		}
		cr.Report = b
	}
	return cr, nil
}

// Agg is a min/mean/max summary over the seed axis.
type Agg struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func aggregate(vals []float64) Agg {
	if len(vals) == 0 {
		return Agg{}
	}
	a := Agg{Min: vals[0], Max: vals[0]}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Mean = round6(sum / float64(len(vals)))
	a.Min, a.Max = round6(a.Min), round6(a.Max)
	return a
}

// Surface is the seed-axis aggregate for one (scenario, variant) pair — one
// point of the response surface the sweep maps out.
type Surface struct {
	Scenario string `json:"scenario"`
	Variant  string `json:"variant"`
	Cells    int    `json:"cells"`
	Score    Agg    `json:"score"`
	SLOPct   Agg    `json:"slo_attainment_pct"`
	CostUSD  Agg    `json:"cost_usd"`
	CostPct  Agg    `json:"cost_delta_pct"`
	// RecoverySecs aggregates only cells that recovered before the run
	// ended; NeverRecovered counts the ones that did not (RecoverySecs −1).
	RecoverySecs   Agg `json:"recovery_secs"`
	NeverRecovered int `json:"never_recovered,omitempty"`
}

// Artifact is the versioned sweep output: the grid echoed back, every cell
// in grid order, and the per-(scenario, variant) surfaces. It carries no
// timing or host data — the same grid encodes to the same bytes at any
// worker count, which is what the determinism and resume tests pin.
type Artifact struct {
	Schema   string       `json:"schema"`
	Grid     Grid         `json:"grid"`
	Cells    []CellResult `json:"cells"`
	Surfaces []Surface    `json:"surfaces"`
}

// EncodeJSON returns the indented deterministic encoding.
func (a *Artifact) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// surfaces folds the completed cell grid into per-(scenario, variant)
// aggregates, in the same scenario-major order as Cells.
func surfaces(g Grid, cells []CellResult) []Surface {
	out := make([]Surface, 0, len(g.Scenarios)*len(g.Variants))
	score := make([]float64, 0, g.Seeds)
	slo := make([]float64, 0, g.Seeds)
	cost := make([]float64, 0, g.Seeds)
	costPct := make([]float64, 0, g.Seeds)
	rec := make([]float64, 0, g.Seeds)
	for si, sc := range g.Scenarios {
		for vi, v := range g.Variants {
			score, slo, cost, costPct, rec = score[:0], slo[:0], cost[:0], costPct[:0], rec[:0]
			never := 0
			for seedIdx := 0; seedIdx < g.Seeds; seedIdx++ {
				c := cells[g.cellIndex(si, seedIdx, vi)]
				score = append(score, c.Score)
				slo = append(slo, c.SLOAttainmentPct)
				cost = append(cost, c.CostUSD)
				costPct = append(costPct, c.CostDeltaPct)
				if c.RecoverySecs < 0 {
					never++
				} else {
					rec = append(rec, c.RecoverySecs)
				}
			}
			out = append(out, Surface{
				Scenario: sc, Variant: v.Name, Cells: g.Seeds,
				Score: aggregate(score), SLOPct: aggregate(slo),
				CostUSD: aggregate(cost), CostPct: aggregate(costPct),
				RecoverySecs: aggregate(rec), NeverRecovered: never,
			})
		}
	}
	return out
}

// RunCell reproduces one cell of a grid standalone and returns its full
// report — byte-identical to the report the sweep computed (and embedded,
// under KeepReports) for the same coordinates, because both paths execute
// the identical runner code with the identical derived seed.
func RunCell(g Grid, ref CellRef) (*chaos.Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if ref.SeedIdx < 0 || ref.SeedIdx >= g.Seeds {
		return nil, fmt.Errorf("sweep: seed index %d outside grid (0..%d)", ref.SeedIdx, g.Seeds-1)
	}
	var variant *Variant
	for i := range g.Variants {
		if g.Variants[i].Name == ref.Variant {
			variant = &g.Variants[i]
			break
		}
	}
	if variant == nil {
		return nil, fmt.Errorf("sweep: variant %q not in grid", ref.Variant)
	}
	sc, err := chaos.Resolve(ref.Scenario)
	if err != nil {
		return nil, err
	}
	env, err := runner.NewEnv(sc, SeedFor(g.BaseSeed, ref.SeedIdx), g.hours(), nil)
	if err != nil {
		return nil, err
	}
	env.SubSteps = g.SubSteps
	rep, _, err := runner.Run(env, variant.Config, nil, nil)
	return rep, err
}

func round6(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Round(x*1e6) / 1e6
}
