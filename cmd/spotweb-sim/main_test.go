package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRun: exit codes and where the output goes. -federation beside an
// explicit -exp used to run the scaling benchmark and drop -exp, and -fed-out
// without -federation wrote nothing; both exited 0.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStdout string
		wantStderr string
	}{
		{name: "table1", args: []string{"-exp", "table1"}, want: 0, wantStdout: "Table 1: Comparison between different approaches"},
		{name: "unknown experiment", args: []string{"-exp", "fig99"}, want: 2, wantStderr: `unknown experiment "fig99"`},
		{name: "unknown flag", args: []string{"-no-such-flag"}, want: 2, wantStderr: "-no-such-flag"},
		{name: "federation with -exp", args: []string{"-federation", "-exp", "fig6a"}, want: 2, wantStderr: "-exp fig6a"},
		{name: "fed-out without federation", args: []string{"-fed-out", "f.json"}, want: 2, wantStderr: "-fed-out f.json needs -federation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
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

// TestFedScaleFromFlags: the federation flag group, -parallelism included,
// sizes the scaling benchmark; -federation alone keeps the default -exp.
func TestFedScaleFromFlags(t *testing.T) {
	fs := flag.NewFlagSet("spotweb-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f, err := parseFlags(fs, []string{"-parallelism", "3", "-federation", "-regions", "2", "-fed-azs", "2",
		"-fed-types", "5", "-fed-rounds", "4", "-fed-out", "f.json"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
	want := experiments.FedScaleOptions{Regions: 2, AZs: 2, Types: 5, Rounds: 4, Parallelism: 3, OutFile: "f.json"}
	if got := f.fedScale(); got != want {
		t.Fatalf("fedScale() = %+v, want %+v", got, want)
	}
}
