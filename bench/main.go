// Command bench is the repository's one benchmark ledger: five workloads —
// the request path with and without revocations, a single-catalog and a
// federated planning round, and the what-if sweep — each measured end to end
// and, in a separate traced run, layer by layer. BENCHMARK.json declares the
// workloads, metric names, units and regression bounds; README.md explains
// how to read them and how a later change states its claim.
//
//	go run ./bench -seed 7                        # all workloads, untraced
//	go run ./bench -seed 7 -trace 1               # all workloads, traced
//	go run ./bench -workload plan_single -seed 7  # one workload (driver form)
//	go run ./bench -selfcheck                     # noise self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// A run sets its workload up several times and reports the median as
// setup_s, so one slow page-in does not read as a set-up regression: at least
// setupMinReps times, and for set-ups that take milliseconds up to
// setupMaxReps times or setupBudget in total.
const (
	setupMinReps = 5
	setupMaxReps = 25
	setupBudget  = 2 * time.Second
)

// repeatSetup builds the workload's environment repeatedly, discarding all
// but the last, and returns that one with the duration of every build in
// seconds.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, timing, error) {
	var env T
	var times timing
	var total time.Duration
	for i := 0; i < setupMaxReps && (i < setupMinReps || total < setupBudget); i++ {
		if i > 0 {
			discard(env)
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, err
		}
		dt := time.Since(t0)
		total += dt
		times = append(times, dt.Seconds())
		env = e
	}
	return env, times, nil
}

// runOpts are the arguments of one workload run.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// window is the measured duration.
func (o runOpts) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// refWindow is the untraced reference segment a traced run spends first, so
// the tracing overhead is measured inside one process on the same inputs.
func (o runOpts) refWindow() time.Duration { return o.window() * 3 / 10 }

func (o runOpts) tracePath() string {
	return filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")
}

// workloads maps a workload name to its implementation.
var workloads = map[string]func(o runOpts, rep *report) error{
	"serve_steady": func(o runOpts, rep *report) error { return runServe(serveSteady, o, rep) },
	"serve_revoke": func(o runOpts, rep *report) error { return runServe(serveRevoke, o, rep) },
	"plan_single":  func(o runOpts, rep *report) error { return runPlan(planSingle, o, rep) },
	"plan_fed":     func(o runOpts, rep *report) error { return runPlan(planFed, o, rep) },
	"whatif_sweep": runSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOpts
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty = all, each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every input generator")
	fs.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 = traced run (per-layer metrics, spans to -out), 0 = end-to-end run")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for traces and full result files")
	selfcheck := fs.Bool("selfcheck", false, "run the set twice, alternating order, and compare each metric with its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments (want -workload NAME -seed N -seconds N -trace 0|1)")
		return 2
	}
	o.trace = *traceFlag == 1
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	switch {
	case *selfcheck:
		return runSelfcheck(spec, o, stdout, stderr)
	case o.workload == "":
		return runAll(spec, o, stdout, stderr)
	}
	return runOne(spec, o, stdout, stderr)
}

// runOne runs a single workload in this process and prints the contract's
// result line as the last line of standard output.
func runOne(spec *benchSpec, o runOpts, stdout, stderr io.Writer) int {
	fn, ok := workloads[o.workload]
	if _, declared := spec.workload(o.workload); !ok || !declared {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	rep := newReport(o)
	if err := fn(o, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	line := rep.result(spec)
	rep.print(stderr, spec)
	if err := rep.save(o.outDir); err != nil {
		fmt.Fprintf(stderr, "bench: save result: %v\n", err)
		return 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
