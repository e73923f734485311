// Command spotweb-chaos runs fault-injection scenarios against the SpotWeb
// stack and emits JSON resilience reports. The simulator path is
// deterministic: the same -seed and scenario produce byte-identical reports,
// which is what the -check mode (and the chaos-smoke CI job) relies on.
//
// Usage:
//
//	spotweb-chaos -suite all -quick -seed 42            # run the built-in suite
//	spotweb-chaos -scenario my.json                     # run a scenario file
//	spotweb-chaos -suite storm -testbed                 # wall-clock testbed replay
//	spotweb-chaos -suite all -quick -check testdata/golden
//	spotweb-chaos -list
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/runcfg"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes reports and listings to stdout
// and diagnostics to stderr, and returns the exit code — 2 for a usage error,
// found before any scenario runs, 1 for a failed run or check.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotweb-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioPath := fs.String("scenario", "", "path to a scenario JSON file")
	suite := fs.String("suite", "", "built-in scenario name, or 'all' for the whole suite")
	out := fs.String("out", "", "directory to write <scenario>.json reports into")
	check := fs.String("check", "", "directory of golden reports to compare against (nonzero exit on deviation)")
	testbedRun := fs.Bool("testbed", false, "replay on the wall-clock testbed instead of the simulator (not deterministic, no -check)")
	testbedDur := fs.Duration("testbed-duration", 3*time.Second, "compressed run length for -testbed")
	list := fs.Bool("list", false, "list built-in scenarios and exit")
	rcFlags := runcfg.BindFlags(fs)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2 // fs.Parse has reported it, with the usage
	}
	rc := rcFlags.Config()
	if err := rc.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	if *list {
		for _, name := range chaos.BuiltinNames() {
			sc, _ := chaos.Builtin(name)
			fmt.Fprintf(stdout, "%-14s %s\n", name, sc.Description)
		}
		return 0
	}

	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	scenarios, err := selectScenarios(*scenarioPath, *suite)
	if err == nil {
		err = checkTestbedFlags(*testbedRun, *out, *check, *testbedDur, set)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return 1
	}
	deviations := 0
	for _, sc := range scenarios {
		if *testbedRun {
			sum, err := runner.RunTestbed(runner.TestbedOptions{
				Scenario: sc, Seed: rc.RunSeed(), Duration: *testbedDur,
			})
			if err != nil {
				return fail("testbed %s: %v", sc.Name, err)
			}
			data, _ := json.MarshalIndent(sum, "", "  ")
			fmt.Fprintf(stdout, "%s\n", data)
			continue
		}

		rep, err := runner.RunSim(sc, rc)
		if err != nil {
			return fail("run %s: %v", sc.Name, err)
		}
		data, err := rep.EncodeJSON()
		if err != nil {
			return fail("encode %s: %v", sc.Name, err)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return fail("%v", err)
			}
			path := filepath.Join(*out, sc.Name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		if *check != "" {
			path := filepath.Join(*check, sc.Name+".json")
			golden, err := os.ReadFile(path)
			switch {
			case err != nil:
				fmt.Fprintf(stderr, "FAIL %s: no golden report (%v)\n", sc.Name, err)
				deviations++
			case !bytes.Equal(golden, data):
				fmt.Fprintf(stderr, "FAIL %s: report deviates from %s\n", sc.Name, path)
				deviations++
			default:
				fmt.Fprintf(stderr, "ok   %s (score %.1f)\n", sc.Name, rep.Score)
			}
			continue
		}
		if *out == "" {
			fmt.Fprintf(stdout, "%s", data)
		}
	}
	if deviations > 0 {
		return fail("%d scenario report(s) deviate from the golden files; regenerate with 'make chaos-golden' if the change is intentional", deviations)
	}
	return 0
}

// selectScenarios resolves the -scenario / -suite flags into a scenario list.
func selectScenarios(path, suite string) ([]*chaos.Scenario, error) {
	switch {
	case path != "" && suite != "":
		return nil, fmt.Errorf("pass either -scenario or -suite, not both")
	case path != "":
		sc, err := chaos.LoadScenario(path)
		if err == nil {
			err = runner.CheckScenario(sc)
		}
		if err != nil {
			return nil, err
		}
		return []*chaos.Scenario{sc}, nil
	case suite == "all":
		var out []*chaos.Scenario
		for _, name := range chaos.BuiltinNames() {
			sc, err := chaos.Builtin(name)
			if err != nil {
				return nil, err
			}
			out = append(out, sc)
		}
		return out, nil
	case suite != "":
		sc, err := chaos.Builtin(suite)
		if err != nil {
			return nil, err
		}
		return []*chaos.Scenario{sc}, nil
	default:
		return nil, fmt.Errorf("one of -scenario, -suite or -list is required")
	}
}

// testbedIgnored names the run options a testbed replay never reads: of the
// shared set it takes -seed alone.
var testbedIgnored = map[string]bool{
	"quick": true, "warning": true, "high-util": true, "anchor-min": true, "sentinel": true,
	"warm-start": true, "risk": true, "risk-quantile": true, "risk-halflife": true,
}

// checkTestbedFlags rejects the flag combinations a testbed replay would
// otherwise ignore: its summary is wall-clock and goes to stdout only, so
// -check would compare nothing (and exit 0) and -out would write nothing; a
// negative -testbed-duration would silently run the default; and a run
// option in set (the flags given) other than -seed would change nothing.
func checkTestbedFlags(testbed bool, out, check string, dur time.Duration, set []string) error {
	switch {
	case dur < 0:
		return fmt.Errorf("-testbed-duration %v is negative", dur)
	case testbed && check != "":
		return fmt.Errorf("-testbed replays are not deterministic: -check %s would compare nothing", check)
	case testbed && out != "":
		return fmt.Errorf("-testbed prints its summary to stdout: -out %s would write nothing", out)
	}
	for _, name := range set {
		if testbed && testbedIgnored[name] {
			return fmt.Errorf("-testbed replays take -seed alone of the run options: -%s would change nothing", name)
		}
	}
	return nil
}
