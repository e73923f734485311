package main

import (
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
	data, err := builtin.EncodeJSON()
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
	if data, err = outage.EncodeJSON(); err != nil {
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
// exit 0, and a negative -testbed-duration ran the default.
func TestCheckTestbedFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		testbed    bool
		out, check string
		dur        time.Duration
		wantErr    string
	}{
		{name: "simulator with -out and -check", out: "d", check: "g", dur: 3 * time.Second},
		{name: "testbed alone", testbed: true, dur: time.Second},
		{name: "testbed zero duration keeps the default", testbed: true},
		{name: "testbed -check", testbed: true, check: "g", dur: time.Second, wantErr: "-check g"},
		{name: "testbed -out", testbed: true, out: "d", dur: time.Second, wantErr: "-out d"},
		{name: "negative duration", testbed: true, dur: -time.Second, wantErr: "-testbed-duration -1s"},
		{name: "negative duration without -testbed", dur: -time.Second, wantErr: "-testbed-duration -1s"},
	} {
		err := checkTestbedFlags(tc.testbed, tc.out, tc.check, tc.dur)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParallelismFlagGone: scenarios are independent runs of one serial
// planner, so the shared flag set main binds no longer takes -parallelism (it
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
