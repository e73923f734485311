// Package chaos is SpotWeb's deterministic fault-injection subsystem. A
// declarative Scenario (a Go struct with a JSON file format) is compiled,
// together with a seed, into a fixed timeline of injected faults —
// correlated multi-market revocation storms, shortened or lost revocation
// warnings, backend slowdown and flapping, price spikes that invalidate the
// current plan, and replacement-start-delay jitter. The compiled Injector is
// consulted by the simulator (event clock), the testbed driver (wall clock)
// and the load balancer; a nil *Injector is a zero-cost no-op, mirroring the
// internal/metrics pattern, so production paths carry one predictable branch
// when chaos is off.
//
// Determinism contract: Compile(scenario, seed, markets) is a pure function
// — the same inputs always yield the same timeline, and every runtime query
// is read-only — so identical (seed, scenario) pairs reproduce bit-identical
// simulator runs and resilience reports.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
)

// FaultKind names one fault family.
type FaultKind string

const (
	// KindStorm fires a correlated multi-market revocation at one instant.
	// Victims come from Markets (explicit), Count (the Count most-populated
	// live transient markets at fire time), or — with Prob set — a Gaussian
	// copula draw over the scenario's Correlation matrix.
	KindStorm FaultKind = "revocation_storm"
	// KindWarningDelay shortens the revocation warning inside its window:
	// warnings fire late, leaving Severity × the normal period (0 < Severity
	// < 1) to react.
	KindWarningDelay FaultKind = "warning_delay"
	// KindWarningLoss drops the revocation warning entirely inside its
	// window: servers terminate with zero notice.
	KindWarningLoss FaultKind = "warning_loss"
	// KindSlowdown degrades serving capacity to Severity × normal (0 <
	// Severity ≤ 1) inside its window.
	KindSlowdown FaultKind = "slowdown"
	// KindFlap alternates between full and Severity × capacity with the
	// given Period inside its window (a flapping backend/network).
	KindFlap FaultKind = "flap"
	// KindPriceSpike multiplies market prices by Severity (≥ 1) inside its
	// window, invalidating the cost assumptions behind the current plan.
	// Markets selects the affected markets (empty = all transient).
	KindPriceSpike FaultKind = "price_spike"
	// KindStartJitter inflates replacement/launch start delays inside its
	// window by a factor sampled once per window from
	// [1 + Severity/2, 1 + 3·Severity/2] under the compile seed.
	KindStartJitter FaultKind = "start_delay_jitter"
	// KindForceAction overrides the LB's revocation decision inside its
	// window: Severity is the forced lb.RevocationAction code (0 =
	// redistribute, 1 = reprovision, 2 = admission control).
	KindForceAction FaultKind = "force_action"
	// KindRegionOutage takes an entire federated region offline: every
	// market the scenario's RegionMap lists under Region is revoked at Start
	// (warning scaled by WarnScale) and stays dark — replacements cannot be
	// bought there — until Start+Duration. The federation-level analogue of
	// a storm plus a purchase blackout.
	KindRegionOutage FaultKind = "region_outage"
)

// FaultSpec declares one fault. Times are fractions of the run in [0, 1), so
// the same scenario replays on the simulator's event clock and the testbed's
// wall clock.
type FaultSpec struct {
	Kind FaultKind `json:"kind"`
	// Start is the onset as a fraction of the run.
	Start float64 `json:"start"`
	// Duration is the window length for windowed faults (fraction of run).
	Duration float64 `json:"duration,omitempty"`
	// Markets targets explicit catalog market indices.
	Markets []int `json:"markets,omitempty"`
	// Count targets the Count most-populated live transient markets at fire
	// time (storms only; resolved by the execution layer).
	Count int `json:"count,omitempty"`
	// Severity is the kind-specific magnitude (see the FaultKind docs).
	Severity float64 `json:"severity,omitempty"`
	// WarnScale is the fraction of the normal warning period retained by the
	// revocations this storm fires (nil = 1, 0 = no warning).
	WarnScale *float64 `json:"warn_scale,omitempty"`
	// Period is the flap on/off period (fraction of run).
	Period float64 `json:"period,omitempty"`
	// Prob is the per-market marginal revocation probability for
	// copula-sampled storms.
	Prob float64 `json:"prob,omitempty"`
	// Region targets every market the scenario's RegionMap lists under this
	// name (region_outage always; storms may use it instead of — or in
	// addition to — explicit markets). A region that maps to zero live
	// markets injects nothing: region targeting never falls back to
	// most-populated selection.
	Region string `json:"region,omitempty"`
}

// CatalogLie makes the catalog lie: the planner (and the risk estimator's
// prior) see DECLARED failure probabilities while the simulator samples
// revocations from the ACTUAL ones. It models a stale or adversarial
// catalog — the regime the online risk estimator exists to survive — and
// puts the execution layer into adaptive-vs-oracle-prior comparison mode.
// All probabilities are per-interval and clamped to [0, 0.5] like the
// synthetic generator's.
type CatalogLie struct {
	// DeclaredFailProb, when > 0, replaces every transient market's declared
	// probability with this constant (the adversarial "everything is safe"
	// story). Mutually exclusive with Stale.
	DeclaredFailProb float64 `json:"declared_fail_prob,omitempty"`
	// Stale freezes the declared series at its interval-0 value: the
	// catalog was measured once and never refreshed while reality drifted.
	Stale bool `json:"stale,omitempty"`
	// ActualFailProb, when > 0, sets the true probability of the targeted
	// markets to this constant (group-correlated at simulation time).
	ActualFailProb float64 `json:"actual_fail_prob,omitempty"`
	// ActualScale, when > 0, multiplies the targeted markets' true series
	// instead of replacing it.
	ActualScale float64 `json:"actual_scale,omitempty"`
	// Groups restricts the ActualFailProb/ActualScale override to these
	// demand-pool groups (empty = all transient markets).
	Groups []int `json:"groups,omitempty"`
}

// Validate checks the lie for internal consistency.
func (l *CatalogLie) Validate(scenario string) error {
	if l == nil {
		return nil
	}
	where := fmt.Sprintf("chaos: scenario %q catalog_lie", scenario)
	if l.DeclaredFailProb == 0 && !l.Stale {
		return fmt.Errorf("%s: needs declared_fail_prob or stale", where)
	}
	if l.DeclaredFailProb != 0 && l.Stale {
		return fmt.Errorf("%s: declared_fail_prob and stale are mutually exclusive", where)
	}
	if l.DeclaredFailProb < 0 || l.DeclaredFailProb > 0.5 {
		return fmt.Errorf("%s: declared_fail_prob %g outside [0,0.5]", where, l.DeclaredFailProb)
	}
	if l.ActualFailProb < 0 || l.ActualFailProb > 0.5 {
		return fmt.Errorf("%s: actual_fail_prob %g outside [0,0.5]", where, l.ActualFailProb)
	}
	if l.ActualScale < 0 {
		return fmt.Errorf("%s: actual_scale %g negative", where, l.ActualScale)
	}
	if l.ActualFailProb > 0 && l.ActualScale > 0 {
		return fmt.Errorf("%s: actual_fail_prob and actual_scale are mutually exclusive", where)
	}
	for _, g := range l.Groups {
		if g < 0 {
			return fmt.Errorf("%s: negative group %d", where, g)
		}
	}
	return nil
}

// Scenario is one declarative fault plan.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Correlation is the market-correlation matrix used by copula-sampled
	// storms: entry [i][j] ∈ [0, 1] couples the latent revocation shocks of
	// markets i and j (diagonal is forced to 1). Optional; identity when
	// absent.
	Correlation [][]float64 `json:"correlation,omitempty"`
	// CatalogLie, when set, splits the run into declared-vs-actual
	// catalogs; the execution layer then scores an adaptive (risk-estimator)
	// planner against the oracle-prior planner that trusts the declaration.
	CatalogLie *CatalogLie `json:"catalog_lie,omitempty"`
	// RegionMap names groups of catalog market indices (region name →
	// global indices, the shape federation.RegionMap returns) so faults can
	// target a whole region. Required at Compile time by any fault that sets
	// Region; execution layers running a federation fill it in.
	RegionMap map[string][]int `json:"region_map,omitempty"`
	Faults    []FaultSpec      `json:"faults"`
}

// maxFlapWindows caps the square-wave periods one flap fault may expand to
// (the built-in flap has 5.5).
const maxFlapWindows = 10000

// Validate checks the scenario for internal consistency.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: scenario needs a name")
	}
	if len(s.Faults) == 0 {
		return fmt.Errorf("chaos: scenario %q has no faults", s.Name)
	}
	if err := s.CatalogLie.Validate(s.Name); err != nil {
		return err
	}
	for i := range s.Correlation {
		if len(s.Correlation[i]) != len(s.Correlation) {
			return fmt.Errorf("chaos: scenario %q correlation matrix is not square", s.Name)
		}
		for j, v := range s.Correlation[i] {
			if v < -1e-9 || v > 1+1e-9 {
				return fmt.Errorf("chaos: scenario %q correlation[%d][%d]=%g outside [0,1]", s.Name, i, j, v)
			}
		}
	}
	for i, f := range s.Faults {
		where := fmt.Sprintf("chaos: scenario %q fault %d (%s)", s.Name, i, f.Kind)
		if f.Start < 0 || f.Start >= 1 {
			return fmt.Errorf("%s: start %g outside [0,1)", where, f.Start)
		}
		if f.Duration < 0 || f.Start+f.Duration > 1+1e-9 {
			return fmt.Errorf("%s: window [%g,%g) outside the run", where, f.Start, f.Start+f.Duration)
		}
		switch f.Kind {
		case KindStorm:
			if len(f.Markets) == 0 && f.Count <= 0 && f.Prob <= 0 && f.Region == "" {
				return fmt.Errorf("%s: needs markets, count, prob or region", where)
			}
			if f.Prob > 0 && len(s.Correlation) == 0 {
				return fmt.Errorf("%s: copula sampling needs a correlation matrix", where)
			}
			if f.WarnScale != nil && (*f.WarnScale < 0 || *f.WarnScale > 1) {
				return fmt.Errorf("%s: warn_scale %g outside [0,1]", where, *f.WarnScale)
			}
		case KindWarningDelay:
			if f.Severity <= 0 || f.Severity >= 1 {
				return fmt.Errorf("%s: severity %g outside (0,1)", where, f.Severity)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("%s: needs a duration", where)
			}
		case KindWarningLoss, KindForceAction:
			if f.Duration <= 0 {
				return fmt.Errorf("%s: needs a duration", where)
			}
			if f.Kind == KindForceAction && (f.Severity < 0 || f.Severity > 2) {
				return fmt.Errorf("%s: severity %g is not an action code (0..2)", where, f.Severity)
			}
		case KindSlowdown:
			if f.Severity <= 0 || f.Severity > 1 {
				return fmt.Errorf("%s: severity %g outside (0,1]", where, f.Severity)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("%s: needs a duration", where)
			}
		case KindFlap:
			if f.Severity < 0 || f.Severity >= 1 {
				return fmt.Errorf("%s: severity %g outside [0,1)", where, f.Severity)
			}
			if f.Period <= 0 || f.Duration <= 0 {
				return fmt.Errorf("%s: needs period and duration", where)
			}
			// Compile steps t += Period across the window: bound the number
			// of steps, and make sure each one moves t. Half a period that
			// still registers at the window's end is at least one ulp there,
			// so every step below it advances t.
			if f.Duration/f.Period > maxFlapWindows {
				return fmt.Errorf("%s: period %g cuts the %g window into more than %d square waves", where, f.Period, f.Duration, maxFlapWindows)
			}
			if end := f.Start + f.Duration; end+f.Period/2 == end {
				return fmt.Errorf("%s: period %g is too short to step across the window [%g,%g)", where, f.Period, f.Start, end)
			}
		case KindPriceSpike:
			if f.Severity < 1 {
				return fmt.Errorf("%s: severity %g below 1", where, f.Severity)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("%s: needs a duration", where)
			}
		case KindStartJitter:
			if f.Severity <= 0 {
				return fmt.Errorf("%s: severity %g not positive", where, f.Severity)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("%s: needs a duration", where)
			}
		case KindRegionOutage:
			if f.Region == "" {
				return fmt.Errorf("%s: needs a region", where)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("%s: needs a duration", where)
			}
			if f.WarnScale != nil && (*f.WarnScale < 0 || *f.WarnScale > 1) {
				return fmt.Errorf("%s: warn_scale %g outside [0,1]", where, *f.WarnScale)
			}
		default:
			return fmt.Errorf("%s: unknown fault kind", where)
		}
	}
	return nil
}

// LoadScenario reads and validates a JSON scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Resolve loads a scenario from a JSON file when the argument names one, and
// falls back to the built-in scenario of that name otherwise — the lookup
// rule behind the daemons' -chaos-scenario flag.
func Resolve(nameOrPath string) (*Scenario, error) {
	if _, err := os.Stat(nameOrPath); err == nil {
		return LoadScenario(nameOrPath)
	}
	return Builtin(nameOrPath)
}
