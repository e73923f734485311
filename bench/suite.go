package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runChild re-executes the harness for one workload, so each workload's peak
// RSS is its own. The child's ledger goes to stderr as it is produced; its
// result line is parsed and returned.
func runChild(o runOpts, stderr io.Writer) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", o.workload, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", o.workload, err)
	}
	return res, nil
}

// runAll runs every workload of BENCHMARK.json, each in its own process, and
// exits non-zero when any output check failed.
func runAll(spec *benchSpec, o runOpts, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range spec.Workloads {
		o.workload = w.Name
		res, err := runChild(o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		b, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s %s\n", w.Name, b)
	}
	return code
}

// savedDigest reads the digest of a workload's deterministic outputs from the
// result file its run saved under dir ("" when it cannot be read).
func savedDigest(dir, workload string) string {
	b, err := os.ReadFile(filepath.Join(dir, "result-"+workload+"-e2e.json"))
	if err != nil {
		return ""
	}
	var r report
	if json.Unmarshal(b, &r) != nil {
		return ""
	}
	return r.Digest
}

// runSelfcheck runs the untraced set twice, the second time in reverse
// workload order, prints each end-to-end metric's two values and their
// relative gap, and exits non-zero when a gap exceeds the metric's own bound
// or a run was incorrect. set-up time is compared like the rest.
func runSelfcheck(spec *benchSpec, o runOpts, stdout, stderr io.Writer) int {
	o.trace = false
	names := make([]string, len(spec.Workloads))
	for i, w := range spec.Workloads {
		names[i] = w.Name
	}
	results := [2]map[string]resultLine{{}, {}}
	digests := [2]map[string]string{{}, {}}
	base, code := o.outDir, 0
	for pass := 0; pass < 2; pass++ {
		o.outDir = filepath.Join(base, fmt.Sprintf("selfcheck-%d", pass+1))
		order := append([]string(nil), names...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			o.workload = w
			res, err := runChild(o, io.Discard)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(stdout, "%-13s pass %d: correct=%v failed=%d\n", w, pass+1, res.Correct, res.Failed)
				code = 1
			}
			results[pass][w] = res
			digests[pass][w] = savedDigest(o.outDir, w)
		}
	}
	fmt.Fprintf(stdout, "%-13s %-12s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, w := range names {
		if a, b := digests[0][w], digests[1][w]; a == "" || a != b {
			fmt.Fprintf(stdout, "%-13s digest %.12s… then %.12s…  DIFFERS: deterministic outputs changed between two runs at one seed\n", w, a, b)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			a, b := results[0][w].Metrics[m.Name].Value, results[1][w].Metrics[m.Name].Value
			gap := 0.0
			if a != 0 {
				gap = math.Abs(b-a) / math.Abs(a)
			}
			flag := ""
			if gap > m.Bound {
				flag = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-12s %14.6g %14.6g %7.2f%% %7.2f%%%s\n",
				w, m.Name, a, b, 100*gap, 100*m.Bound, flag)
		}
	}
	return code
}
