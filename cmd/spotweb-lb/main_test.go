package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: each input below used to start the servers and then
// panic, divide by zero, hang or do nothing. Now it exits 2 with a message
// before any backend or listener starts: -chaos-markets 0 divided by zero, a
// negative capacity panicked in the backend's join timer, -revoke 99 with six
// backends logged a revocation that never happened, a positional argument
// silently ended flag parsing, a flap period too short for its window hung
// the scenario compiler, -risk-quantile NaN published NaN for every market,
// and -risk with -metrics "" ran an estimator that published nowhere.
func TestRunRejectsBadFlags(t *testing.T) {
	tinyFlap := filepath.Join(t.TempDir(), "tiny-flap.json")
	err := os.WriteFile(tinyFlap, []byte(`{"name":"tiny-flap","faults":[{"kind":"flap","start":0.5,"duration":0.1,"period":1e-20,"severity":0.5}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// An address nothing can listen on: a rejected run must not get as far
	// as trying it.
	addr := []string{"-listen", "256.0.0.1:1", "-metrics", ""}
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStderr string
	}{
		{name: "zero chaos markets", args: []string{"-chaos-scenario", "storm", "-chaos-markets", "0"}, want: 2, wantStderr: "-chaos-markets 0: want at least 1"},
		{name: "negative capacity", args: []string{"-backends", "25,-5", "-start-delay", "100ms"}, want: 2, wantStderr: "capacity -5: want a positive, finite req/s"},
		{name: "zero capacity", args: []string{"-backends", "0"}, want: 2, wantStderr: "capacity 0: want a positive, finite req/s"},
		{name: "infinite capacity", args: []string{"-backends", "25,Inf"}, want: 2, wantStderr: "capacity +Inf: want a positive, finite req/s"},
		{name: "NaN capacity", args: []string{"-backends", "NaN"}, want: 2, wantStderr: "capacity NaN: want a positive, finite req/s"},
		{name: "unparsable capacity", args: []string{"-backends", "25,x"}, want: 2, wantStderr: `-backends "25,x"`},
		{name: "revoke outside fleet", args: []string{"-revoke", "99", "-revoke-after", "1s"}, want: 2, wantStderr: "-revoke 99: no such backend; the 6 backends have ids 0..5"},
		{name: "negative revoke id", args: []string{"-backends", "10,10", "-revoke", "-1"}, want: 2, wantStderr: "-revoke -1: no such backend; the 2 backends have ids 0..1"},
		{name: "unparsable revoke", args: []string{"-revoke", "2,b"}, want: 2, wantStderr: `-revoke "2,b"`},
		{name: "positional argument", args: []string{"extra", "-vanilla"}, want: 2, wantStderr: `unexpected argument "extra"`},
		{name: "positional after flags", args: []string{"-vanilla", "extra"}, want: 2, wantStderr: `unexpected argument "extra"`},
		{name: "unknown scenario", args: []string{"-chaos-scenario", "no-such-scenario"}, want: 2, wantStderr: "-chaos-scenario:"},
		{name: "flap period too short", args: []string{"-chaos-scenario", tinyFlap}, want: 2, wantStderr: "more than 10000 square waves"},
		{name: "NaN risk quantile", args: []string{"-risk", "-risk-quantile", "NaN"}, want: 2, wantStderr: "-risk-quantile NaN: want 0 (as published) or a positive, finite value"},
		{name: "infinite risk quantile", args: []string{"-risk-quantile", "Inf"}, want: 2, wantStderr: "-risk-quantile +Inf: want 0 (as published)"},
		{name: "negative risk quantile", args: []string{"-risk-quantile", "-0.5"}, want: 2, wantStderr: "-risk-quantile -0.5: want 0 (as published)"},
		{name: "risk quantile 1", args: []string{"-risk", "-risk-quantile", "1"}, want: 2, wantStderr: "-risk-quantile 1: want a quantile below 1"},
		{name: "NaN risk half-life", args: []string{"-risk", "-risk-halflife", "NaN"}, want: 2, wantStderr: "-risk-halflife NaN: want 0 (as published)"},
		{name: "infinite risk half-life", args: []string{"-risk-halflife", "Inf"}, want: 2, wantStderr: "-risk-halflife +Inf: want 0 (as published)"},
		{name: "negative risk half-life", args: []string{"-risk-halflife", "-2"}, want: 2, wantStderr: "-risk-halflife -2: want 0 (as published)"},
		{name: "risk without metrics", args: []string{"-risk"}, want: 2, wantStderr: `-risk with -metrics "": the estimator publishes only on /metrics`},
		{name: "unknown flag", args: []string{"-no-such-flag"}, want: 2, wantStderr: "-no-such-flag"},
		{name: "help", args: []string{"-h"}, want: 0, wantStderr: "-chaos-markets"},
		{name: "unusable listen address", args: nil, want: 1, wantStderr: "256.0.0.1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), addr...), tc.args...)
			var stdout, stderr bytes.Buffer
			if got := run(args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("run(%v): stderr %q, want it to contain %q", args, stderr.String(), tc.wantStderr)
			}
			if stdout.Len() != 0 || strings.Contains(stderr.String(), "backend 0:") {
				t.Fatalf("run(%v) started backends: stdout %q, stderr %q", args, stdout.String(), stderr.String())
			}
		})
	}
}
