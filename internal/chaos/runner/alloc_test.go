package runner

import (
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/runcfg"
	"repro/internal/sim"
)

// TestRunCellAllocationBound: a what-if sweep cell run through Run with the
// worker's reused Scratch allocates a bounded number of bytes. The cells are
// a sweep's on one seed — the five standard-catalog suite scenarios × four
// variants, live planning and trace replay alike — after one warm-up cell
// on another seed. The attainment series lives in the Scratch, the chaos
// leg's journal only counts, and each planner's warm solves reuse their
// feasible set and solver vectors.
func TestRunCellAllocationBound(t *testing.T) {
	const maxBytesPerCell = 120 << 10
	hours := ScenarioHours(true)
	scenarios := []string{"combined", "flap", "late-warning", "price-spike", "storm"}
	variants := []runcfg.RunConfig{{}, {Sentinel: true}, {AnchorMin: 0.3}, {Risk: true}}
	envsFor := func(seed int64) []*Env {
		cat, plans := StandardCatalog(seed, hours), &PlanCache{}
		var envs []*Env
		for _, name := range scenarios {
			sc, err := chaos.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewEnv(sc, seed, hours, cat)
			if err != nil {
				t.Fatal(err)
			}
			env.Plans = plans
			envs = append(envs, env)
		}
		return envs
	}
	scratch := sim.NewScratch()
	if _, _, err := Run(envsFor(3)[0], runcfg.RunConfig{}, scratch, nil); err != nil {
		t.Fatal(err)
	}
	envs := envsFor(4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cells := 0
	for _, rc := range variants {
		var baseline *sim.Result
		for _, env := range envs {
			var err error
			if _, baseline, err = Run(env, rc, scratch, baseline); err != nil {
				t.Fatal(err)
			}
			cells++
		}
	}
	runtime.ReadMemStats(&after)
	if perCell := (after.TotalAlloc - before.TotalAlloc) / uint64(cells); perCell > maxBytesPerCell {
		t.Fatalf("a sweep cell allocates %d KB, want at most %d KB", perCell>>10, maxBytesPerCell>>10)
	}
}
