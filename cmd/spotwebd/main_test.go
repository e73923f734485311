package main

import (
	"bytes"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRunRejectsBadFlags: each input below used to start both servers and
// then panic, plan something else or do nothing. Now it exits 2 with a
// message before any listener starts: -interval 0 and -interval -1s panicked
// in the control loop's ticker, -markets 0 planned an 18-market catalog, a
// positional argument was ignored, and the rest ran a daemon that could not
// mean what it was asked.
func TestRunRejectsBadFlags(t *testing.T) {
	// Ports nothing can listen on (no name lookup involved): a rejected run
	// must not get as far as trying them.
	addr := []string{"-listen", "127.0.0.1:99999", "-monitor", "127.0.0.1:99998"}
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStderr string
	}{
		{name: "zero interval", args: []string{"-interval", "0"}, want: 2, wantStderr: "-interval 0s: want a positive re-planning interval"},
		{name: "negative interval", args: []string{"-interval", "-1s"}, want: 2, wantStderr: "-interval -1s: want a positive"},
		{name: "zero slo", args: []string{"-slo", "0"}, want: 2, wantStderr: "-slo 0s: want a positive latency threshold"},
		{name: "zero cap-scale", args: []string{"-cap-scale", "0"}, want: 2, wantStderr: "-cap-scale 0: want a positive, finite factor"},
		{name: "negative cap-scale", args: []string{"-cap-scale", "-0.5"}, want: 2, wantStderr: "-cap-scale -0.5: want a positive"},
		{name: "NaN cap-scale", args: []string{"-cap-scale", "NaN"}, want: 2, wantStderr: "-cap-scale NaN: want a positive"},
		{name: "infinite cap-scale", args: []string{"-cap-scale", "Inf"}, want: 2, wantStderr: "-cap-scale +Inf: want a positive"},
		{name: "zero markets", args: []string{"-markets", "0"}, want: 2, wantStderr: "-markets 0: want at least 1"},
		{name: "negative markets", args: []string{"-markets", "-3"}, want: 2, wantStderr: "-markets -3: want at least 1"},
		{name: "negative admit-rps", args: []string{"-admit-rps", "-1"}, want: 2, wantStderr: "-admit-rps -1: want 0 (off) or a positive req/s"},
		{name: "NaN admit-rps", args: []string{"-admit-rps", "NaN"}, want: 2, wantStderr: "-admit-rps NaN"},
		{name: "negative warning", args: []string{"-warning", "-1s"}, want: 2, wantStderr: "-warning -1s: want a non-negative warning period"},
		{name: "NaN high-util", args: []string{"-high-util", "NaN"}, want: 2, wantStderr: "-high-util NaN"},
		{name: "anchor-min above 1", args: []string{"-anchor-min", "1.5"}, want: 2, wantStderr: "-anchor-min 1.5"},
		{name: "risk-quantile 1.5", args: []string{"-risk", "-risk-quantile", "1.5"}, want: 2, wantStderr: "-risk-quantile 1.5"},
		{name: "positional argument", args: []string{"bogus"}, want: 2, wantStderr: `unexpected argument "bogus"`},
		{name: "positional after flags", args: []string{"-markets", "4", "bogus", "-interval", "0"}, want: 2, wantStderr: `unexpected argument "bogus"`},
		{name: "unknown scenario", args: []string{"-chaos-scenario", "no-such-scenario"}, want: 2, wantStderr: "-chaos-scenario:"},
		{name: "unknown flag", args: []string{"-no-such-flag"}, want: 2, wantStderr: "-no-such-flag"},
		{name: "help", args: []string{"-h"}, want: 0, wantStderr: "-cap-scale"},
		{name: "unusable listen address", args: nil, want: 1, wantStderr: "99999"},
		// The federation sizes itself; -markets does not apply to it.
		{name: "federation ignores markets", args: []string{"-federation", "-markets", "0"}, want: 1, wantStderr: "99999"},
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
			if stdout.Len() != 0 || strings.Contains(stderr.String(), "load balancer on") {
				t.Fatalf("run(%v) started serving: stdout %q, stderr %q", args, stdout.String(), stderr.String())
			}
		})
	}
}

// TestRunRejectsBadFederationFlags: with -federation these used to start both
// servers on a federation of another size (-regions -3 planned 8 regions,
// -fed-types -4 six types, -fed-azs -1 one AZ, -fed-providers "" the default
// providers). Now each exits 2 naming the flag before any listener starts.
func TestRunRejectsBadFederationFlags(t *testing.T) {
	addr := []string{"-listen", "127.0.0.1:99999", "-monitor", "127.0.0.1:99998", "-federation"}
	for _, tc := range []struct {
		args       []string
		wantStderr string
	}{
		{[]string{"-regions", "-3"}, "-regions -3: want at least 1"},
		{[]string{"-fed-types", "-4"}, "-fed-types -4: want at least 1"},
		{[]string{"-fed-azs", "-1"}, "-fed-azs -1: want at least 1"},
		{[]string{"-fed-rounds", "-1"}, "-fed-rounds -1"},
		{[]string{"-fed-providers", ""}, `-fed-providers ""`},
	} {
		args := append(append([]string(nil), addr...), tc.args...)
		var stdout, stderr bytes.Buffer
		if got := run(args, &stdout, &stderr); got != 2 {
			t.Fatalf("run(%v) = %d, want 2\nstderr: %s", args, got, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Fatalf("run(%v): stderr %q, want it to contain %q", args, stderr.String(), tc.wantStderr)
		}
	}
}

// lockedBuffer is a log sink the daemon's goroutines and the test can share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesOnBoundPorts: with port 0 the daemon logs the ports it bound
// (it used to log ":0"), serves the monitoring API there, plans, and shuts
// down cleanly on SIGINT.
func TestRunServesOnBoundPorts(t *testing.T) {
	var stdout bytes.Buffer
	var stderr lockedBuffer
	args := []string{"-listen", "127.0.0.1:0", "-monitor", "127.0.0.1:0", "-interval", "100ms", "-markets", "3"}
	done := make(chan int, 1)
	go func() { done <- run(args, &stdout, &stderr) }()

	bound := regexp.MustCompile(`monitoring REST on (127\.0\.0\.1:\d+) [\s\S]*load balancer on 127\.0\.0\.1:(\d+) `)
	var m []string
	for deadline := time.Now().Add(10 * time.Second); m == nil || !strings.Contains(stderr.String(), "t=0 observed="); time.Sleep(20 * time.Millisecond) {
		select {
		case code := <-done:
			t.Fatalf("run exited %d before serving\nstderr: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bound addresses or first round logged\nstderr: %s", stderr.String())
		}
		m = bound.FindStringSubmatch(stderr.String())
	}
	if m[2] == "0" {
		t.Fatalf("load balancer logged port 0\nstderr: %s", stderr.String())
	}
	resp, err := http.Get("http://" + m[1] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz on the logged monitor address: %s", resp.Status)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 || !strings.Contains(stderr.String(), "shutdown complete") {
			t.Fatalf("run = %d after SIGINT\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not return after SIGINT\nstderr: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want nothing", stdout.String())
	}
}
