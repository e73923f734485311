package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the relative
// regression bound of an end-to-end metric (absent on per-layer metrics).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec is one named workload and the reason it is in the set.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is the part of BENCHMARK.json the harness reads — the single
// declaration of workloads, metric names, units, directions and bounds. The
// harness emits values by name and takes everything else from here, so the
// file and the program cannot drift apart.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether s is a legal metric or workload name:
// letters, digits, '_', '.', '-', at most 64, starting with a letter or digit.
func validMetricName(s string) bool { return metricNameRE.MatchString(s) }

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root under the driver and `go run ./bench`) or its parent (`go test` runs
// in the package directory).
func loadSpec() (*benchSpec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks names are legal and unique and that the mandatory setup_s
// metric is present.
func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !validMetricName(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: metric %q has better=%q", m.Name, m.Better)
		}
	}
	if !seen["setup_s"] {
		return fmt.Errorf("BENCHMARK.json: end_to_end lacks setup_s")
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %d outside 1..60", s.RunSeconds)
	}
	return nil
}

// workload returns the named workload's spec.
func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
