package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// report collects what one workload run measured: operations attempted and
// failed, output checks that did not hold, and metric values by name.
type report struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Traced   bool      `json:"traced"`
	Host     hostInfo  `json:"host"`
	When     time.Time `json:"when"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Checks lists the output checks that failed; any entry makes the run
	// incorrect and the process exit non-zero.
	Checks []string `json:"failed_checks"`
	// Notes are observations that do not fail the run (a generator that ran
	// late, a deterministic window cut short).
	Notes []string `json:"notes,omitempty"`
	// Values holds every metric the run produced; Samples the number of
	// observations behind a value where it is a statistic of many.
	Values  map[string]float64 `json:"values"`
	Samples map[string]int     `json:"samples,omitempty"`
	// Digest is the SHA-256 of the deterministic outputs (sweep artifacts,
	// plan counts): two runs of one commit at one seed must agree on it.
	Digest string `json:"digest,omitempty"`
}

func newReport(o runOpts) *report {
	return &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Host: host(), When: time.Now().UTC(),
		Values: map[string]float64{}, Samples: map[string]int{},
	}
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.Values[name] = v }

// setN records a metric value computed from n samples.
func (r *report) setN(name string, v float64, n int) {
	r.Values[name] = v
	r.Samples[name] = n
}

// failf records a failed output check.
func (r *report) failf(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// notef records an observation that does not fail the run.
func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// noteTop records the highest percentile of a timing that still has ten
// samples beyond it; anything higher is not reported as a finding.
func (r *report) noteTop(what string, ms timing) {
	if p := topPercentile(len(ms)); p > 0 {
		r.notef("%s p%g = %.3f ms, the highest percentile with ≥ 10 samples beyond it (n=%d)", what, p, ms.pct(p), len(ms))
	}
}

func (r *report) correct() bool { return len(r.Checks) == 0 }

// metricOut is one entry of the result line's metrics object.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result builds the result line: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one. A per-layer metric the
// workload's layers do not produce reads 0 (the layer did no work). A missing
// end-to-end metric, a non-finite value or a value under a name BENCHMARK.json
// does not declare is a harness bug and fails the run.
func (r *report) result(spec *benchSpec) resultLine {
	declared := map[string]bool{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	for name, v := range r.Values {
		if !declared[name] {
			r.failf("metric %q is not declared in BENCHMARK.json", name)
		}
		if !finite(v) {
			r.failf("metric %q is not finite (%v)", name, v)
			r.Values[name] = 0
		}
	}
	list := spec.EndToEnd
	if r.Traced {
		list = spec.PerLayer
	}
	out := resultLine{Metrics: map[string]metricOut{}}
	for _, m := range list {
		v, ok := r.Values[m.Name]
		if !ok && !r.Traced {
			r.failf("end-to-end metric %q was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if r.Attempted < 1 {
		r.failf("no operation was attempted")
		r.Attempted = 1
		r.Failed = 1
	}
	out.Correct, out.Attempted, out.Failed = r.correct(), r.Attempted, r.Failed
	return out
}

// print writes the human-readable ledger: every metric the run produced, by
// name, with its unit and sample count, then checks and notes.
func (r *report) print(w io.Writer, spec *benchSpec) {
	mode := "untraced (end-to-end)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%d  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d %s kernel=%s\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Kernel)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.correct())
	units := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m
	}
	names := make([]string, 0, len(r.Values))
	for n := range r.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("   %-42s %14.6g %-6s", n, r.Values[n], units[n].Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf(" n=%d", c)
		}
		if a := alias(r.Workload, n); a != "" {
			line += "  (" + a + ")"
		}
		fmt.Fprintln(w, line)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "   digest %s\n", r.Digest)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", c)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// save writes the full report (values, samples, host, digest) as JSON.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", r.Workload, kind)), append(b, '\n'), 0o644)
}

// alias gives the workload-specific reading of a generic end-to-end metric
// (the names ISSUE 12 uses), for the human-readable ledger.
func alias(workload, metric string) string {
	kind := "sweep"
	switch workload {
	case "serve_steady", "serve_revoke":
		kind = "serve"
	case "plan_single", "plan_fed":
		kind = "plan"
	}
	return map[string]map[string]string{
		"serve": {
			"op_p50_ms": "req_p50_ms, from due time", "op_p90_ms": "req_p90_ms, from due time",
			"ok_share": "slo_ok_share: 200 within 100 ms of due", "ops_per_s": "requests answered 200 per second",
			"cost_usd": "fleet_cost_usd over the run's planning intervals",
		},
		"plan": {
			"op_p50_ms": "round_p50_ms per Controller.Step", "op_p90_ms": "round_p90_ms",
			"ok_share": "1 - underprov_share", "ops_per_s": "planning rounds per second",
			"cost_usd": "fleet_cost_usd over the deterministic rounds",
		},
		"sweep": {
			"op_p50_ms": "wall ms per cell, median over batches", "op_p90_ms": "wall ms per cell, p90 over batches",
			"ok_share": "score_mean / 100", "ops_per_s": "cells_per_s",
			"cost_usd": "mean cell cost_usd",
		},
	}[kind][metric]
}
