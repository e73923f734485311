package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun: exit codes, messages and what reaches the output. A route or
// cluster run with -backends 0 or -1 used to drop every request and exit 0,
// and a positional argument silently ended flag parsing, so the flags after
// it kept their defaults (a 5-s run for "extra -duration 50ms"); each is now
// rejected with exit 2 before any load starts.
func TestRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	defer srv.Close()
	short := []string{"-duration", "30ms", "-workers", "1"}
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStdout string
		wantStderr string
	}{
		{name: "route", args: append([]string{"-backends", "2"}, short...), want: 0, wantStderr: "spotweb-load mode=route backends=2: ops="},
		{name: "route json", args: append([]string{"-backends", "1", "-json", "-"}, short...), want: 0, wantStdout: `"latency_samples"`},
		{name: "url", args: append([]string{"-mode", "url", "-url", srv.URL, "-sessions", "4"}, short...), want: 0, wantStderr: "spotweb-load mode=url"},
		{name: "zero backends", args: append([]string{"-backends", "0"}, short...), want: 2, wantStderr: "-backends 0: want at least 1"},
		{name: "negative backends", args: []string{"-mode", "cluster", "-backends", "-1"}, want: 2, wantStderr: "-backends -1: want at least 1"},
		{name: "positional argument", args: []string{"extra", "-duration", "50ms"}, want: 2, wantStderr: `unexpected argument "extra"`},
		{name: "positional after flags", args: []string{"-duration", "50ms", "extra"}, want: 2, wantStderr: `unexpected argument "extra"`},
		{name: "negative duration", args: []string{"-duration", "-1s"}, want: 2, wantStderr: "-duration -1s"},
		{name: "negative sessions", args: []string{"-sessions", "-3"}, want: 2, wantStderr: "-sessions -3"},
		{name: "negative admit-rps", args: []string{"-admit-rps", "-5"}, want: 2, wantStderr: "-admit-rps -5"},
		{name: "url outside url mode", args: []string{"-url", srv.URL}, want: 2, wantStderr: "-url is read only in -mode url"},
		{name: "url mode without url", args: []string{"-mode", "url"}, want: 2, wantStderr: "-mode url requires -url"},
		{name: "unknown mode", args: []string{"-mode", "bogus"}, want: 2, wantStderr: `unknown -mode "bogus"`},
		{name: "unknown flag", args: []string{"-no-such-flag"}, want: 2, wantStderr: "-no-such-flag"},
		{name: "unwritable json", args: append([]string{"-json", filepath.Join(t.TempDir(), "missing", "x.json")}, short...), want: 1, wantStderr: "x.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) || !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("run(%v): stdout %.200q, stderr %q; want them to contain %q and %q",
					tc.args, stdout.String(), stderr.String(), tc.wantStdout, tc.wantStderr)
			}
			if tc.want == 2 && (stdout.Len() != 0 || strings.Contains(stderr.String(), "spotweb-load mode=")) {
				t.Fatalf("run(%v) was rejected but ran load: stdout %.200q, stderr %q", tc.args, stdout.String(), stderr.String())
			}
		})
	}
}

// TestRunJSONOutputs: -json - and -json FILE each write one result document
// that decodes to a run in which every route was served.
func TestRunJSONOutputs(t *testing.T) {
	args := []string{"-backends", "4", "-duration", "30ms", "-workers", "1"}
	var stdout bytes.Buffer
	if got := run(append(args, "-json", "-"), &stdout, &bytes.Buffer{}); got != 0 {
		t.Fatalf("run(-json -) = %d", got)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if got := run(append(args, "-json", path), &bytes.Buffer{}, &bytes.Buffer{}); got != 0 {
		t.Fatalf("run(-json %s) = %d", path, got)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{stdout.Bytes(), b} {
		var res struct {
			Ops    int64 `json:"ops"`
			Served int64 `json:"served"`
		}
		if err := json.Unmarshal(doc, &res); err != nil {
			t.Fatalf("result JSON %q: %v", doc, err)
		}
		if res.Ops == 0 || res.Served != res.Ops {
			t.Fatalf("result JSON %q: want every one of a non-zero number of routes served", doc)
		}
	}
}
