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
		// Run options that used to run something else, exit 0.
		{name: "NaN high-util", args: []string{"-exp", "table1", "-high-util", "NaN"}, want: 2, wantStderr: "-high-util NaN"},
		{name: "negative warning", args: []string{"-exp", "table1", "-warning", "-100"}, want: 2, wantStderr: "-warning -100"},
		{name: "risk-quantile 1.5", args: []string{"-exp", "table1", "-risk", "-risk-quantile", "1.5"}, want: 2, wantStderr: "-risk-quantile 1.5"},
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

// TestRunRejectsBadFederationFlags: each of these used to exit 0 after
// planning a federation of another size — -regions -3 planned 8 regions,
// -fed-types -4 six types, -fed-azs -1 one AZ, -fed-providers "" the default
// providers. Now each exits 2 naming the flag, before any planning.
func TestRunRejectsBadFederationFlags(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		wantStderr string
	}{
		{[]string{"-regions", "-3", "-fed-types", "2"}, "-regions -3"},
		{[]string{"-fed-types", "-4"}, "-fed-types -4"},
		{[]string{"-fed-azs", "-1"}, "-fed-azs -1"},
		{[]string{"-fed-rounds", "-2"}, "-fed-rounds -2"},
		{[]string{"-fed-providers", ""}, `-fed-providers ""`},
	} {
		args := append([]string{"-federation", "-quick"}, tc.args...)
		var stdout, stderr bytes.Buffer
		if got := run(args, &stdout, &stderr); got != 2 {
			t.Fatalf("run(%v) = %d, want 2\nstdout: %s", args, got, stdout.String())
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Fatalf("run(%v): stdout %q, stderr %q; want no output and an error naming %s",
				args, stdout.String(), stderr.String(), tc.wantStderr)
		}
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
