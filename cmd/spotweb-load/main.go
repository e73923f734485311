// Command spotweb-load is the load-generation harness CLI: closed-loop
// workers hammering one of three targets, reporting throughput and sampled
// latency quantiles (optionally as JSON for the BENCH_lb trajectory).
//
// Modes:
//
//	route    — a raw lb.Balancer's Route hot path (the data-plane hop in
//	           isolation; this is the million-RPS measurement)
//	cluster  — an in-process testbed cluster's front end (handler dispatch
//	           plus the LB→backend socket hop)
//	url      — a live HTTP endpoint (e.g. a running spotwebd), used by
//	           scripts/smoke.sh
//
// Usage:
//
//	spotweb-load -mode route -backends 16 -workers 16 -duration 5s -sessions 4096
//	spotweb-load -mode url -url http://127.0.0.1:8080/ -duration 2s -json out.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/lb"
	"repro/internal/loadgen"
	"repro/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// loadFlags is the parsed command line.
type loadFlags struct {
	mode, url, jsonOut                  string
	backends, workers, sessions, sample int
	duration                            time.Duration
	admitRPS                            float64
	// positional holds the first non-flag argument and everything after it,
	// which the flag package leaves unparsed.
	positional []string
}

func parseFlags(fs *flag.FlagSet, args []string) (*loadFlags, error) {
	f := &loadFlags{}
	fs.StringVar(&f.mode, "mode", "route", "target: route (raw data plane), cluster (in-process testbed), url (live endpoint)")
	fs.IntVar(&f.backends, "backends", 16, "backends in the route/cluster target")
	fs.IntVar(&f.workers, "workers", 0, "closed-loop workers (0 = 2×GOMAXPROCS)")
	fs.DurationVar(&f.duration, "duration", 5*time.Second, "measurement window")
	fs.IntVar(&f.sessions, "sessions", 0, "sticky session ids to cycle (0 = sessionless)")
	fs.Float64Var(&f.admitRPS, "admit-rps", 0, "token-bucket admission limit on the route/cluster target (0 = off)")
	fs.IntVar(&f.sample, "sample-every", 64, "latency sampling stride")
	fs.StringVar(&f.url, "url", "", "base URL for -mode url")
	fs.StringVar(&f.jsonOut, "json", "", "write the result JSON to this file (- = stdout)")
	err := fs.Parse(args)
	f.positional = fs.Args()
	return f, err
}

// check rejects the inputs that used to start a run anyway: a positional
// argument (every flag after it silently kept its default), no backends (every
// request dropped, exit 0), negative windows, session counts or admission
// rates, and a -url that a route or cluster run ignores.
func (f *loadFlags) check() error {
	switch {
	case len(f.positional) > 0:
		return fmt.Errorf("unexpected argument %q: spotweb-load takes flags only", f.positional[0])
	case f.mode != "route" && f.mode != "cluster" && f.mode != "url":
		return fmt.Errorf("unknown -mode %q: want route, cluster or url", f.mode)
	case f.mode == "url" && f.url == "":
		return errors.New("-mode url requires -url")
	case f.mode != "url" && f.url != "":
		return fmt.Errorf("-url is read only in -mode url, not in -mode %s", f.mode)
	case f.mode != "url" && f.backends < 1:
		return fmt.Errorf("-backends %d: want at least 1", f.backends)
	case f.duration < 0:
		return fmt.Errorf("-duration %v: want 0 (the 1 s default) or more", f.duration)
	case f.sessions < 0:
		return fmt.Errorf("-sessions %d: want 0 (sessionless) or more", f.sessions)
	case f.admitRPS < 0:
		return fmt.Errorf("-admit-rps %v: want 0 (off) or more", f.admitRPS)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotweb-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f, err := parseFlags(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // fs.Parse has reported it, with the usage
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, "spotweb-load:", err)
		fs.Usage()
		return 2
	}

	var target loadgen.Target
	switch f.mode {
	case "route":
		bal := lb.NewBalancer()
		weights := make(map[int]float64, f.backends)
		for i := 0; i < f.backends; i++ {
			weights[i] = float64(1 + i%5)
		}
		bal.UpdatePortfolio(weights)
		bal.SetAdmission(lb.NewTokenBucket(f.admitRPS, 64))
		target = loadgen.BalancerTarget(bal)
	case "cluster":
		cl := testbed.NewCluster(testbed.ClusterConfig{
			Backend: testbed.BackendConfig{
				BaseServiceTime: 100 * time.Microsecond,
				QueueLimit:      4096,
			},
			Warning:  time.Second,
			AdmitRPS: f.admitRPS,
		})
		defer cl.Close()
		for i := 0; i < f.backends; i++ {
			cl.AddBackend(1000)
		}
		target = loadgen.HandlerTarget(cl)
	case "url":
		target = loadgen.URLTarget(f.url, nil)
	}

	res := loadgen.Run(loadgen.Config{
		Workers:     f.workers,
		Duration:    f.duration,
		Sessions:    f.sessions,
		SampleEvery: f.sample,
	}, target)

	fmt.Fprintf(stderr, "spotweb-load mode=%s backends=%d: %s\n", f.mode, f.backends, res)
	if f.jsonOut == "" {
		return 0
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		enc = append(enc, '\n')
		if f.jsonOut == "-" {
			_, err = stdout.Write(enc)
		} else {
			err = os.WriteFile(f.jsonOut, enc, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "spotweb-load:", err)
		return 1
	}
	return 0
}
