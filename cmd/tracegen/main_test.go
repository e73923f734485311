package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun: exit codes, messages and what reaches the output. Bad input used
// to truncate an existing -out file before the unknown -kind was rejected,
// to panic on -days -1 after creating an empty file, and to emit the
// generator's defaults for -markets 0 or -hours -5; each now exits 2 before
// the output is touched.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStdout string
		wantStderr string
	}{
		{name: "workload", args: []string{"-days", "1"}, want: 0, wantStdout: "hours,wikipedia_like,vod_like\n"},
		{name: "market", args: []string{"-kind", "market", "-markets", "1", "-hours", "2"}, want: 0, wantStdout: "_failprob"},
		{name: "unknown kind", args: []string{"-kind", "bogus"}, want: 2, wantStderr: `unknown -kind "bogus"`},
		{name: "negative days", args: []string{"-days", "-1"}, want: 2, wantStderr: "-days -1: want at least 1"},
		{name: "zero markets", args: []string{"-kind", "market", "-markets", "0"}, want: 2, wantStderr: "-markets 0: want at least 1"},
		{name: "negative hours", args: []string{"-kind", "market", "-hours", "-5"}, want: 2, wantStderr: "-hours -5: want at least 1"},
		{name: "unknown flag", args: []string{"-no-such-flag"}, want: 2, wantStderr: "-no-such-flag"},
		{name: "unwritable output", args: []string{"-days", "1", "-out", filepath.Join(t.TempDir(), "missing", "x.csv")}, want: 1, wantStderr: "x.csv"},
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
			if tc.want != 0 && stdout.Len() != 0 {
				t.Fatalf("run(%v) failed but wrote to stdout: %.200q", tc.args, stdout.String())
			}
		})
	}
}

// TestRunLeavesOutputAloneOnBadInput: a rejected command line neither
// truncates an existing -out file nor creates a missing one.
func TestRunLeavesOutputAloneOnBadInput(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "x.csv")
	if err := os.WriteFile(existing, []byte("keep me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-kind", "bogus", "-out", existing},
		{"-days", "-1", "-out", existing},
		{"-kind", "market", "-markets", "0", "-out", existing},
	} {
		if got := run(args, &bytes.Buffer{}, &bytes.Buffer{}); got != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, got)
		}
		if b, err := os.ReadFile(existing); err != nil || string(b) != "keep me\n" {
			t.Fatalf("run(%v) touched the existing output: %q, %v", args, b, err)
		}
	}
	missing := filepath.Join(dir, "new.csv")
	if got := run([]string{"-days", "-1", "-out", missing}, &bytes.Buffer{}, &bytes.Buffer{}); got != 2 {
		t.Fatalf("run = %d, want 2", got)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("a rejected run created %s (stat: %v)", missing, err)
	}
}

// TestRunFileMatchesStdout: -out writes exactly what stdout would receive.
func TestRunFileMatchesStdout(t *testing.T) {
	for _, args := range [][]string{{"-days", "1", "-seed", "7"}, {"-kind", "market", "-markets", "2", "-hours", "24"}} {
		var stdout bytes.Buffer
		if got := run(args, &stdout, &bytes.Buffer{}); got != 0 {
			t.Fatalf("run(%v) = %d", args, got)
		}
		path := filepath.Join(t.TempDir(), "out.csv")
		if got := run(append(args, "-out", path), &bytes.Buffer{}, &bytes.Buffer{}); got != 0 {
			t.Fatalf("run(%v -out) = %d", args, got)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, stdout.Bytes()) {
			t.Fatalf("run(%v): -out wrote %d bytes, stdout got %d", args, len(b), stdout.Len())
		}
	}
}
