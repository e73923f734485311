package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestGridFromFlags: the flag set → sweep.Grid mapping, including that a
// negative -hours/-substeps is rejected as it is in a -grid file rather than
// silently replaced by the default.
func TestGridFromFlags(t *testing.T) {
	gridFile := filepath.Join(t.TempDir(), "grid.json")
	fileGrid := `{"name":"from-file","scenarios":["flap"],"seeds":3,"variants":[{"name":"default","config":{}}],"hours":12,"sub_steps":30}`
	if err := os.WriteFile(gridFile, []byte(fileGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	// One solve is serial and cells parallelise through -workers: the knob a
	// variant could once carry is an unknown field now.
	staleGrid := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(staleGrid, []byte(strings.Replace(fileGrid, `"config":{}`, `"config":{"parallelism":4}`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	def, _ := sweep.BuiltinVariant("default")
	sentinel, _ := sweep.BuiltinVariant("sentinel")
	flagGrid := func(edit func(*sweep.Grid)) sweep.Grid {
		g := sweep.Grid{Name: "sweep", Scenarios: sweep.StandardSuiteScenarios(), Seeds: 8, Variants: sweep.BuiltinVariants()}
		edit(&g)
		return g
	}
	fromFile := func(edit func(*sweep.Grid)) sweep.Grid {
		g := sweep.Grid{Name: "from-file", Scenarios: []string{"flap"}, Seeds: 3, Variants: []sweep.Variant{def}, Hours: 12, SubSteps: 30}
		edit(&g)
		return g
	}
	for _, tc := range []struct {
		name    string
		args    []string
		want    sweep.Grid
		wantErr string
		// wantParseErr: the flag set itself rejects the arguments.
		wantParseErr string
	}{
		{name: "defaults", want: flagGrid(func(*sweep.Grid) {})},
		{name: "quick", args: []string{"-quick"}, want: flagGrid(func(g *sweep.Grid) { g.Quick = true })},
		{name: "axes", args: []string{"-scenarios", "storm, flap", "-seeds", "2", "-variants", "default,sentinel", "-base-seed", "9", "-name", "n", "-keep-reports"},
			want: sweep.Grid{Name: "n", Scenarios: []string{"storm", "flap"}, Seeds: 2, BaseSeed: 9, Variants: []sweep.Variant{def, sentinel}, KeepReports: true}},
		{name: "hours and substeps positive", args: []string{"-hours", "5", "-substeps", "3"},
			want: flagGrid(func(g *sweep.Grid) { g.Hours, g.SubSteps = 5, 3 })},
		{name: "hours and substeps zero", args: []string{"-hours", "0", "-substeps", "0"}, want: flagGrid(func(*sweep.Grid) {})},
		{name: "hours negative", args: []string{"-hours", "-5"}, wantErr: "negative Hours/SubSteps"},
		{name: "substeps negative", args: []string{"-substeps", "-3"}, wantErr: "negative Hours/SubSteps"},
		{name: "unknown variant", args: []string{"-variants", "nope"}, wantErr: "nope"},
		{name: "no seeds", args: []string{"-seeds", "0"}, wantErr: "at least one"},
		{name: "grid file overrides the axis flags", args: []string{"-grid", gridFile, "-scenarios", "storm", "-seeds", "40", "-variants", "sentinel", "-quick", "-name", "ignored"},
			want: fromFile(func(*sweep.Grid) {})},
		{name: "grid file honors run-shape overrides", args: []string{"-grid", gridFile, "-hours", "7", "-keep-reports"},
			want: fromFile(func(g *sweep.Grid) { g.Hours, g.KeepReports = 7, true })},
		{name: "grid file with zero overrides keeps its own", args: []string{"-grid", gridFile, "-hours", "0", "-substeps", "0"}, want: fromFile(func(*sweep.Grid) {})},
		{name: "grid file with negative override", args: []string{"-grid", gridFile, "-substeps", "-1"}, wantErr: "negative Hours/SubSteps"},
		{name: "missing grid file", args: []string{"-grid", gridFile + ".absent"}, wantErr: "no such file"},
		{name: "grid file with a parallelism override", args: []string{"-grid", staleGrid}, wantErr: `unknown field "parallelism"`},
		{name: "parallelism flag", args: []string{"-parallelism", "4"}, wantParseErr: "flag provided but not defined: -parallelism"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("spotweb-sweep", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var gf gridFlags
			gf.register(fs)
			if err := fs.Parse(tc.args); err != nil || tc.wantParseErr != "" {
				if tc.wantParseErr == "" || err == nil || !strings.Contains(err.Error(), tc.wantParseErr) {
					t.Fatalf("Parse(%v) = %v; want an error containing %q", tc.args, err, tc.wantParseErr)
				}
				return
			}
			got, err := gf.build()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("build() = %+v, %v; want an error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("build() = %+v\nwant      %+v", got, tc.want)
			}
		})
	}
}
