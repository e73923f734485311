// Command spotweb-sweep is the scenario lab CLI: it expands a declarative
// grid (scenarios × seeds × variants) into cells, runs them concurrently on
// the sweep engine, and writes one versioned JSON artifact of resilience /
// cost / SLO / recovery surfaces. Any cell of any sweep can be reproduced
// standalone with -cell — byte-identical to what the sweep recorded.
//
// Usage:
//
//	spotweb-sweep -seeds 40 -quick -out sweep.json              # 1,000-cell chaos suite
//	spotweb-sweep -scenarios storm,flap -seeds 8 -variants default,sentinel
//	spotweb-sweep -grid grid.json -workers 8 -checkpoint ck.jsonl
//	spotweb-sweep -grid grid.json -checkpoint ck.jsonl -resume  # finish a killed run
//	spotweb-sweep -seeds 40 -quick -cell storm:17:sentinel      # reproduce one cell
//	spotweb-sweep -list-variants
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

func main() {
	var gf gridFlags
	gf.register(flag.CommandLine)
	workers := flag.Int("workers", 4, "concurrent cell workers")
	out := flag.String("out", "", "artifact output path (default stdout)")
	ckPath := flag.String("checkpoint", "", "JSONL checkpoint file; completed cells are appended as they finish")
	resume := flag.Bool("resume", false, "resume from -checkpoint, skipping already-completed cells")
	statsOut := flag.String("stats-out", "", "write this run's throughput stats (cells/sec) as JSON to this file")
	cell := flag.String("cell", "", "reproduce one cell standalone: scenario:seedIdx:variant (prints its full report)")
	listVariants := flag.Bool("list-variants", false, "list built-in variants and exit")
	flag.Parse()

	if *listVariants {
		for _, v := range sweep.BuiltinVariants() {
			cfg, _ := json.Marshal(v.Config)
			fmt.Printf("%-16s %s\n", v.Name, cfg)
		}
		return
	}

	grid, err := gf.build()
	if err != nil {
		fatalf("%v", err)
	}

	if *cell != "" {
		ref, err := parseCellRef(*cell)
		if err != nil {
			fatalf("%v", err)
		}
		rep, err := sweep.RunCell(grid, ref)
		if err != nil {
			fatalf("cell %s: %v", *cell, err)
		}
		data, err := rep.EncodeJSON()
		if err != nil {
			fatalf("encode: %v", err)
		}
		if err := writeOut(*out, data); err != nil {
			fatalf("%v", err)
		}
		return
	}

	art, stats, err := sweep.Run(grid, sweep.Options{
		Workers:        *workers,
		CheckpointPath: *ckPath,
		Resume:         *resume,
		Progress: func(done, total int) {
			// Coarse progress on stderr; every ~5% plus the final cell.
			step := total / 20
			if step == 0 || done%step == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		},
	})
	if errors.Is(err, sweep.ErrStopped) {
		fmt.Fprintln(os.Stderr, "sweep stopped early; resume with -resume")
		os.Exit(3)
	}
	if err != nil {
		fatalf("%v", err)
	}

	if *statsOut != "" {
		data, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			fatalf("encode stats: %v", err)
		}
		if err := os.WriteFile(*statsOut, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells (%d resumed) in %.1fs, %.1f cells/sec (%d workers, %d cores)\n",
		stats.TotalCells, stats.Resumed, stats.ElapsedSec, stats.CellsPerSec, stats.Workers, stats.Cores)

	data, err := art.EncodeJSON()
	if err != nil {
		fatalf("encode artifact: %v", err)
	}
	if err := writeOut(*out, data); err != nil {
		fatalf("%v", err)
	}
}

// gridFlags are the flags that shape the grid.
type gridFlags struct {
	path, scenarios, variants, name string
	seeds                           int
	baseSeed                        int64
	quick, keep                     bool
	hours, subSteps                 int
}

func (f *gridFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.path, "grid", "", "path to a grid JSON file (overrides the axis flags)")
	fs.StringVar(&f.scenarios, "scenarios", strings.Join(sweep.StandardSuiteScenarios(), ","),
		"comma-separated chaos scenario names or JSON file paths")
	fs.IntVar(&f.seeds, "seeds", 8, "size of the seed axis")
	fs.StringVar(&f.variants, "variants", "", "comma-separated built-in variant names (default: all built-ins)")
	fs.Int64Var(&f.baseSeed, "base-seed", 0, "offset for the FNV seed derivation")
	fs.StringVar(&f.name, "name", "sweep", "grid name recorded in the artifact")
	fs.BoolVar(&f.quick, "quick", false, "CI-sized cells (36 intervals instead of 96)")
	fs.IntVar(&f.hours, "hours", 0, "override run length in intervals (0 = the grid's own)")
	fs.IntVar(&f.subSteps, "substeps", 0, "override within-interval sub-steps (0 = the grid's own)")
	fs.BoolVar(&f.keep, "keep-reports", false, "embed each cell's full chaos report in the artifact (large)")
}

// build assembles the grid from a JSON file or the axis flags. A file grid
// still honors explicit run-shape overrides passed alongside it; a negative
// override reaches Validate, which rejects it as it does in a grid file.
func (f *gridFlags) build() (sweep.Grid, error) {
	var g sweep.Grid
	if f.path != "" {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return g, err
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&g); err != nil {
			return g, fmt.Errorf("parse grid %s: %v", f.path, err)
		}
	} else {
		g = sweep.Grid{
			Name:      f.name,
			Scenarios: splitList(f.scenarios),
			Seeds:     f.seeds,
			BaseSeed:  f.baseSeed,
			Quick:     f.quick,
		}
		if f.variants == "" {
			g.Variants = sweep.BuiltinVariants()
		} else {
			for _, vn := range splitList(f.variants) {
				v, err := sweep.BuiltinVariant(vn)
				if err != nil {
					return g, err
				}
				g.Variants = append(g.Variants, v)
			}
		}
	}
	if f.hours != 0 {
		g.Hours = f.hours
	}
	if f.subSteps != 0 {
		g.SubSteps = f.subSteps
	}
	if f.keep {
		g.KeepReports = true
	}
	return g, g.Validate()
}

// parseCellRef parses "scenario:seedIdx:variant". The scenario may itself
// contain colons (Windows paths aside, it may be a file path); the last two
// segments are the coordinates.
func parseCellRef(s string) (sweep.CellRef, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 {
		return sweep.CellRef{}, fmt.Errorf("bad -cell %q: want scenario:seedIdx:variant", s)
	}
	idx, err := strconv.Atoi(parts[len(parts)-2])
	if err != nil {
		return sweep.CellRef{}, fmt.Errorf("bad -cell seed index in %q: %v", s, err)
	}
	return sweep.CellRef{
		Scenario: strings.Join(parts[:len(parts)-2], ":"),
		SeedIdx:  idx,
		Variant:  parts[len(parts)-1],
	}, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func writeOut(path string, data []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
