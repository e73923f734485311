// Command benchdiff maintains the BENCH_sweep trajectory: it parses raw
// `go test -bench` output into a compact JSON baseline and compares two
// baselines with a regression threshold (scripts/bench_sweep.sh produces,
// `make bench-gate` and the nightly workflow compare).
//
// Parse mode (produce a baseline from raw benchmark output):
//
//	benchdiff -parse raw.txt -schema spotweb-bench-sweep/v1 -meta stats.json -out BENCH_sweep.json
//
// Multiple runs of the same benchmark (-count=N) collapse to the MINIMUM
// ns/op: the minimum is the least-noisy estimator of the true cost on a
// shared CI machine (noise is strictly additive).
//
// Compare mode (gate a candidate against the checked-in baseline):
//
//	benchdiff -baseline BENCH_sweep.json -current new.json -threshold 1.20
//
// Exits 1 when any baseline benchmark regresses beyond the threshold or is
// missing from the candidate; benchmarks only present in the candidate are
// reported but do not fail (they are new coverage awaiting a baseline
// refresh).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the BENCH_*.json schema.
type Baseline struct {
	Schema     string                `json:"schema"`
	Benchmarks map[string]BenchEntry `json:"benchmarks"`
	// Meta carries arbitrary producer-supplied context (e.g. the sweep
	// engine's Stats: real-cell cells/sec, worker and core counts). It is
	// informational — compare mode gates only on Benchmarks.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// BenchEntry is one benchmark's summarized result.
type BenchEntry struct {
	NsPerOp float64 `json:"ns_per_op"`
	Samples int     `json:"samples"` // runs collapsed into the minimum
}

// defaultSchema is the sweep trajectory's schema id.
const defaultSchema = "spotweb-bench-sweep/v1"

// benchLine matches `BenchmarkName-8   12345   67.8 ns/op ...`; the -N
// GOMAXPROCS suffix is stripped so baselines transfer across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op`)

func main() {
	parse := flag.String("parse", "", "raw go-test bench output to summarize")
	schema := flag.String("schema", defaultSchema, "schema id stamped into the baseline (parse mode)")
	meta := flag.String("meta", "", "optional JSON file embedded verbatim under 'meta' (parse mode)")
	out := flag.String("out", "BENCH_sweep.json", "output path for the summarized baseline (parse mode)")
	baseline := flag.String("baseline", "", "checked-in baseline JSON (compare mode)")
	current := flag.String("current", "", "candidate baseline JSON (compare mode)")
	threshold := flag.Float64("threshold", 1.20, "max allowed current/baseline ns/op ratio")
	flag.Parse()

	switch {
	case *parse != "":
		if err := runParse(*parse, *meta, *schema, *out); err != nil {
			fatal(err)
		}
	case *baseline != "" && *current != "":
		failed, err := runCompare(*baseline, *current, *threshold)
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff -parse raw.txt [-schema id] [-meta stats.json] [-out BENCH_sweep.json]")
		fmt.Fprintln(os.Stderr, "       benchdiff -baseline a.json -current b.json [-threshold 1.20]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func runParse(rawPath, metaPath, schema, outPath string) error {
	f, err := os.Open(rawPath)
	if err != nil {
		return err
	}
	defer f.Close()

	b := Baseline{Schema: schema, Benchmarks: map[string]BenchEntry{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e, seen := b.Benchmarks[m[1]]
		if !seen || ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		e.Samples++
		b.Benchmarks[m[1]] = e
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", rawPath)
	}
	if metaPath != "" {
		m, err := os.ReadFile(metaPath)
		if err != nil {
			return err
		}
		if !json.Valid(m) {
			return fmt.Errorf("%s is not valid JSON", metaPath)
		}
		b.Meta = json.RawMessage(m)
	}
	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchdiff: wrote %d benchmark(s) to %s\n", len(b.Benchmarks), outPath)
	return nil
}

func load(path string) (Baseline, error) {
	var b Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return b, fmt.Errorf("%s: no benchmarks", path)
	}
	return b, nil
}

func runCompare(basePath, curPath string, threshold float64) (failed bool, err error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(curPath)
	if err != nil {
		return false, err
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-44s %12s %12s %8s\n", "benchmark", "baseline", "current", "ratio")
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failed = true
			fmt.Fprintf(w, "%-44s %12.1f %12s %8s  MISSING\n", name, b.NsPerOp, "-", "-")
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		if ratio > threshold {
			failed = true
			verdict = fmt.Sprintf("REGRESSION (>%.0f%%)", (threshold-1)*100)
		}
		fmt.Fprintf(w, "%-44s %12.1f %12.1f %7.2fx  %s\n", name, b.NsPerOp, c.NsPerOp, ratio, verdict)
	}
	extra := 0
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "%-44s %12s %12.1f %8s  new (no baseline)\n", name, "-", cur.Benchmarks[name].NsPerOp, "-")
			extra++
		}
	}
	if failed {
		fmt.Fprintln(w, "benchdiff: FAIL — regression or missing benchmark vs baseline")
	} else {
		fmt.Fprintf(w, "benchdiff: ok (%d compared, %d new)\n", len(names), extra)
	}
	return failed, nil
}
