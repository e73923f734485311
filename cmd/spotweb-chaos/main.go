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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/runcfg"
)

func main() {
	scenarioPath := flag.String("scenario", "", "path to a scenario JSON file")
	suite := flag.String("suite", "", "built-in scenario name, or 'all' for the whole suite")
	out := flag.String("out", "", "directory to write <scenario>.json reports into")
	check := flag.String("check", "", "directory of golden reports to compare against (nonzero exit on deviation)")
	testbedRun := flag.Bool("testbed", false, "replay on the wall-clock testbed instead of the simulator (not deterministic, no -check)")
	testbedDur := flag.Duration("testbed-duration", 3*time.Second, "compressed run length for -testbed")
	list := flag.Bool("list", false, "list built-in scenarios and exit")
	rcFlags := runcfg.BindFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, name := range chaos.BuiltinNames() {
			sc, _ := chaos.Builtin(name)
			fmt.Printf("%-14s %s\n", name, sc.Description)
		}
		return
	}

	rc := rcFlags.Config()

	scenarios, err := selectScenarios(*scenarioPath, *suite)
	if err == nil {
		err = checkTestbedFlags(*testbedRun, *out, *check, *testbedDur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	deviations := 0
	for _, sc := range scenarios {
		if *testbedRun {
			sum, err := runner.RunTestbed(runner.TestbedOptions{
				Scenario: sc, Seed: rc.RunSeed(), Duration: *testbedDur,
			})
			if err != nil {
				fatalf("testbed %s: %v", sc.Name, err)
			}
			data, _ := json.MarshalIndent(sum, "", "  ")
			fmt.Printf("%s\n", data)
			continue
		}

		rep, err := runner.RunSim(sc, rc)
		if err != nil {
			fatalf("run %s: %v", sc.Name, err)
		}
		data, err := rep.EncodeJSON()
		if err != nil {
			fatalf("encode %s: %v", sc.Name, err)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatalf("%v", err)
			}
			path := filepath.Join(*out, sc.Name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if *check != "" {
			path := filepath.Join(*check, sc.Name+".json")
			golden, err := os.ReadFile(path)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "FAIL %s: no golden report (%v)\n", sc.Name, err)
				deviations++
			case !bytes.Equal(golden, data):
				fmt.Fprintf(os.Stderr, "FAIL %s: report deviates from %s\n", sc.Name, path)
				deviations++
			default:
				fmt.Fprintf(os.Stderr, "ok   %s (score %.1f)\n", sc.Name, rep.Score)
			}
			continue
		}
		if *out == "" {
			fmt.Printf("%s", data)
		}
	}
	if deviations > 0 {
		fatalf("%d scenario report(s) deviate from the golden files; regenerate with 'make chaos-golden' if the change is intentional", deviations)
	}
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

// checkTestbedFlags rejects the flag combinations a testbed replay would
// otherwise ignore: its summary is wall-clock and goes to stdout only, so
// -check would compare nothing (and exit 0) and -out would write nothing; and a
// negative -testbed-duration would silently run the default.
func checkTestbedFlags(testbed bool, out, check string, dur time.Duration) error {
	switch {
	case dur < 0:
		return fmt.Errorf("-testbed-duration %v is negative", dur)
	case testbed && check != "":
		return fmt.Errorf("-testbed replays are not deterministic: -check %s would compare nothing", check)
	case testbed && out != "":
		return fmt.Errorf("-testbed prints its summary to stdout: -out %s would write nothing", out)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
