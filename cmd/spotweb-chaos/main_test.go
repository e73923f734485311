package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/runcfg"
)

// TestSelectScenarios: the -scenario / -suite pair resolves to a scenario list
// or to an error that names what was wrong.
func TestSelectScenarios(t *testing.T) {
	dir := t.TempDir()
	builtin, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(builtin)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "storm.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A region outage runs on the federation's unspiked catalogs, so a price
	// spike beside it is a usage error rather than a fault silently not run.
	outage, err := chaos.Builtin("region-outage")
	if err != nil {
		t.Fatal(err)
	}
	outage.Faults = append(append([]chaos.FaultSpec(nil), outage.Faults...),
		chaos.FaultSpec{Kind: chaos.KindPriceSpike, Start: 0.3, Duration: 0.3, Severity: 3})
	if data, err = json.Marshal(outage); err != nil {
		t.Fatal(err)
	}
	spiked := filepath.Join(dir, "outage-spike.json")
	if err := os.WriteFile(spiked, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, suite string
		want              []string // scenario names
		wantErr           string
	}{
		{name: "neither", wantErr: "one of -scenario, -suite or -list"},
		{name: "both", path: file, suite: "storm", wantErr: "not both"},
		{name: "all", suite: "all", want: chaos.BuiltinNames()},
		{name: "one built-in", suite: "storm", want: []string{"storm"}},
		{name: "unknown name", suite: "no-such-scenario", wantErr: "no-such-scenario"},
		{name: "scenario file", path: file, want: []string{"storm"}},
		{name: "missing file", path: file + ".absent", wantErr: "no such file"},
		{name: "region outage with a price spike", path: spiked, wantErr: "combines region_outage with price_spike"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectScenarios(tc.path, tc.suite)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("selectScenarios = %v, %v; want an error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, sc := range got {
				names = append(names, sc.Name)
			}
			if strings.Join(names, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("selectScenarios = %v, want %v", names, tc.want)
			}
		})
	}
}

// TestCheckTestbedFlags: a testbed replay used to skip -check and -out and
// exit 0, and a negative -testbed-duration ran the default; it still takes
// -seed, and a simulator run takes every run option.
func TestCheckTestbedFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		testbed    bool
		out, check string
		dur        time.Duration
		set        []string
		wantErr    string
	}{
		{name: "simulator with -out and -check", out: "d", check: "g", dur: 3 * time.Second},
		{name: "testbed alone", testbed: true, dur: time.Second},
		{name: "testbed -seed", testbed: true, set: []string{"seed", "suite", "testbed"}},
		{name: "simulator run options", set: []string{"quick", "risk", "sentinel"}},
		{name: "testbed -risk", testbed: true, set: []string{"risk", "seed", "testbed"}, wantErr: "-risk would change nothing"},
		{name: "testbed zero duration keeps the default", testbed: true},
		{name: "testbed -check", testbed: true, check: "g", dur: time.Second, wantErr: "-check g"},
		{name: "testbed -out", testbed: true, out: "d", dur: time.Second, wantErr: "-out d"},
		{name: "negative duration", testbed: true, dur: -time.Second, wantErr: "-testbed-duration -1s"},
		{name: "negative duration without -testbed", dur: -time.Second, wantErr: "-testbed-duration -1s"},
	} {
		err := checkTestbedFlags(tc.testbed, tc.out, tc.check, tc.dur, tc.set)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParallelismFlagGone: scenarios are independent runs of one serial
// planner, so the shared flag set run binds no longer takes -parallelism (it
// could never change a report).
func TestParallelismFlagGone(t *testing.T) {
	fs := flag.NewFlagSet("spotweb-chaos", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	runcfg.BindFlags(fs)
	err := fs.Parse([]string{"-quick", "-parallelism", "4"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -parallelism") {
		t.Fatalf("Parse = %v, want -parallelism rejected as an unknown flag", err)
	}
}

// TestRunRejectsBadRunOptions: run options no run can mean exit 2 with the
// flag's name before any scenario runs. -high-util NaN used to score the
// storm 98.65 (the default scores 82.41) and exit 0, -warning NaN scored
// 92.66, and -warning -100 and -risk-quantile 1.5 silently ran the defaults.
// A -testbed replay reads -seed alone of the run options; it used to run
// with any other set and ignore it.
func TestRunRejectsBadRunOptions(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStdout string
		wantStderr string
	}{
		{name: "NaN high-util", args: []string{"-suite", "storm", "-quick", "-high-util", "NaN"}, want: 2, wantStderr: "-high-util NaN"},
		{name: "NaN warning", args: []string{"-suite", "storm", "-quick", "-warning", "NaN"}, want: 2, wantStderr: "-warning NaN"},
		{name: "negative warning", args: []string{"-suite", "storm", "-quick", "-warning", "-100"}, want: 2, wantStderr: "-warning -100"},
		{name: "risk-quantile 1.5", args: []string{"-suite", "storm", "-quick", "-risk", "-risk-quantile", "1.5"}, want: 2, wantStderr: "-risk-quantile 1.5"},
		{name: "no scenario", args: []string{"-quick"}, want: 2, wantStderr: "one of -scenario, -suite or -list"},
		{name: "testbed -quick", args: []string{"-suite", "storm", "-testbed", "-quick"}, want: 2, wantStderr: "-quick would change nothing"},
		{name: "testbed -warning", args: []string{"-suite", "storm", "-testbed", "-warning", "30"}, want: 2, wantStderr: "-warning would change nothing"},
		{name: "testbed -high-util", args: []string{"-suite", "storm", "-testbed", "-high-util", "0.7"}, want: 2, wantStderr: "-high-util would change nothing"},
		{name: "testbed -anchor-min", args: []string{"-suite", "storm", "-testbed", "-anchor-min", "0.3"}, want: 2, wantStderr: "-anchor-min would change nothing"},
		{name: "testbed -sentinel", args: []string{"-suite", "storm", "-testbed", "-sentinel"}, want: 2, wantStderr: "-sentinel would change nothing"},
		{name: "testbed -warm-start", args: []string{"-suite", "storm", "-testbed", "-warm-start=false"}, want: 2, wantStderr: "-warm-start would change nothing"},
		{name: "testbed -risk", args: []string{"-suite", "storm", "-testbed", "-risk"}, want: 2, wantStderr: "-risk would change nothing"},
		{name: "testbed -risk-quantile", args: []string{"-suite", "storm", "-testbed", "-risk-quantile", "0.8"}, want: 2, wantStderr: "-risk-quantile would change nothing"},
		{name: "testbed -risk-halflife", args: []string{"-suite", "storm", "-testbed", "-risk-halflife", "12"}, want: 2, wantStderr: "-risk-halflife would change nothing"},
		{name: "unknown flag", args: []string{"-parallelism", "4"}, want: 2, wantStderr: "-parallelism"},
		{name: "list", args: []string{"-list"}, want: 0, wantStdout: "storm"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) || !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("run(%v): stdout %q, stderr %q; want them to contain %q and %q",
					tc.args, stdout.String(), stderr.String(), tc.wantStdout, tc.wantStderr)
			}
			if tc.want != 0 && stdout.Len() != 0 {
				t.Fatalf("run(%v) failed but wrote to stdout: %q", tc.args, stdout.String())
			}
		})
	}
}
