package chaos

import (
	"encoding/json"
	"math"
)

// Report is the resilience report one scenario run emits. Every field is
// computed from deterministic inputs (the simulator result, the event
// journal's type/detail counts — never its wall-clock timestamps), so the
// same (seed, scenario) pair produces a byte-identical encoding.
type Report struct {
	Scenario  string `json:"scenario"`
	Seed      int64  `json:"seed"`
	Policy    string `json:"policy"`
	Intervals int    `json:"intervals"`
	Markets   int    `json:"markets"`

	// Federation shape, set only by federated scenarios (region_outage):
	// Regions is the number of federated regions, FedShards the number of
	// per-AZ planner shards. Both are omitempty so the pre-federation golden
	// reports stay byte-stable.
	Regions   int `json:"regions,omitempty"`
	FedShards int `json:"fed_shards,omitempty"`

	// Fault accounting.
	InjectedRevocations int              `json:"injected_revocations"`
	NaturalRevocations  int              `json:"natural_revocations"`
	Actions             map[string]int64 `json:"actions"`      // revocation decisions taken
	EventCounts         map[string]int64 `json:"event_counts"` // journal lifetime counts

	// Service quality under faults.
	SLOAttainmentPct float64 `json:"slo_attainment_pct"`
	ViolationPct     float64 `json:"violation_pct"`
	DropFraction     float64 `json:"drop_fraction"`
	DroppedReqs      float64 `json:"dropped_reqs"`
	MeanLatencySec   float64 `json:"mean_latency_sec"`
	// OverloadSecs is the time offered load exceeded serving capacity — the
	// admission-control regime, where requests are dropped or delayed.
	OverloadSecs    float64 `json:"overload_secs"`
	AdmissionEvents int64   `json:"admission_events"`

	// Recovery-time scoring (the sentinel HA tier metric): RecoverySecs is
	// the worst first-fault → attainment-back-above-target episode in
	// seconds, measured on the simulator's sub-step attainment series against
	// RecoveryTargetPct (0 = never dipped, −1 = never recovered before the
	// run ended). RecoveryEpisodes counts below-target episodes and
	// AttainmentSeries publishes the per-interval mean attainment.
	RecoveryTargetPct float64   `json:"recovery_target_pct,omitempty"`
	RecoverySecs      float64   `json:"recovery_secs"`
	RecoveryEpisodes  int       `json:"recovery_episodes"`
	AttainmentSeries  []float64 `json:"attainment_per_interval,omitempty"`
	// Restarts counts sentinel warm restarts; AnchorMin and Sentinel echo
	// the HA configuration of the run (omitted when off, keeping default
	// reports free of the knobs they did not use).
	Restarts  int     `json:"restarts,omitempty"`
	AnchorMin float64 `json:"anchor_min,omitempty"`
	Sentinel  bool    `json:"sentinel,omitempty"`

	// Cost vs the fault-free baseline (same seed, no injector).
	CostUSD              float64 `json:"cost_usd"`
	BaselineCostUSD      float64 `json:"baseline_cost_usd"`
	CostDeltaPct         float64 `json:"cost_delta_pct"`
	BaselineViolationPct float64 `json:"baseline_violation_pct"`

	// Score is the composite resilience score in [0, 100]; see Finalize.
	Score float64 `json:"score"`

	// Adaptive carries the adaptive-vs-oracle-prior comparison for
	// lying-catalog scenarios (nil — and absent from the encoding — for
	// ordinary scenarios, keeping their golden reports byte-stable). The
	// primary fields above describe the ORACLE-PRIOR run (the planner that
	// trusts the declared catalog); Adaptive describes the same faults with
	// the online risk estimator in the loop.
	Adaptive *AdaptiveComparison `json:"adaptive,omitempty"`
}

// AdaptiveComparison scores the risk-estimator planner against the
// oracle-prior planner under identical faults, workload and seed.
type AdaptiveComparison struct {
	SLOAttainmentPct    float64 `json:"slo_attainment_pct"`
	ViolationPct        float64 `json:"violation_pct"`
	DropFraction        float64 `json:"drop_fraction"`
	CostUSD             float64 `json:"cost_usd"`
	Revocations         int     `json:"revocations"`
	InjectedRevocations int     `json:"injected_revocations"`
	Score               float64 `json:"score"`
	// RecoverySecs is the adaptive run's worst below-target episode (same
	// definition as Report.RecoverySecs).
	RecoverySecs float64 `json:"recovery_secs"`
	// SLOGainPct is adaptive minus oracle-prior SLO attainment, in points.
	SLOGainPct float64 `json:"slo_gain_pct"`
	// CostDeltaPct is 100·(adaptive − oracle)/oracle; ≤ 0 means the
	// adaptive planner was also cheaper.
	CostDeltaPct float64 `json:"cost_delta_pct"`
	// Changepoints is the number of price-regime shifts the estimator
	// detected; MeanAbsDivergence is how far (mean |Δp| across transient
	// markets) its published probabilities ended up from the declared ones.
	Changepoints      int64   `json:"changepoints"`
	MeanAbsDivergence float64 `json:"mean_abs_divergence"`
	// Dominates records the acceptance condition: strictly better SLO
	// attainment at equal-or-lower cost.
	Dominates bool `json:"dominates"`
}

// Finalize derives the composite score and rounds every float to six
// decimals so encodings stay stable across toolchains. Without recovery
// scoring (RecoveryTargetPct == 0) the score blends the three axes the
// paper's evaluation plots: SLO attainment (weight 0.5), request survival
// (0.25) and cost containment vs the fault-free baseline (0.25, losing a
// point per percent of cost inflation). When a recovery target is set the
// blend gains a fourth axis — time-to-recovery, at full marks for instant
// recovery and zero at one hour (or never) — re-weighted 0.45/0.2/0.2/0.15
// so a 9-minute recovery and an 85-second one finally score differently.
func (r *Report) Finalize() {
	attain := clamp(r.SLOAttainmentPct, 0, 100)
	survival := clamp(100*(1-r.DropFraction), 0, 100)
	cost := clamp(100-math.Max(0, r.CostDeltaPct), 0, 100)
	if r.RecoveryTargetPct > 0 {
		r.Score = float64(0.45*attain) + float64(0.2*survival) + float64(0.2*cost) + float64(0.15*recoveryScore(r.RecoverySecs))
	} else {
		r.Score = float64(0.5*attain) + float64(0.25*survival) + float64(0.25*cost)
	}

	for _, f := range []*float64{
		&r.SLOAttainmentPct, &r.ViolationPct, &r.DropFraction, &r.DroppedReqs,
		&r.MeanLatencySec, &r.OverloadSecs, &r.CostUSD, &r.BaselineCostUSD,
		&r.CostDeltaPct, &r.BaselineViolationPct, &r.Score,
		&r.RecoveryTargetPct, &r.RecoverySecs, &r.AnchorMin,
	} {
		*f = round6(*f)
	}
	for i := range r.AttainmentSeries {
		r.AttainmentSeries[i] = round6(r.AttainmentSeries[i])
	}
	if a := r.Adaptive; a != nil {
		attain := clamp(a.SLOAttainmentPct, 0, 100)
		survival := clamp(100*(1-a.DropFraction), 0, 100)
		costDelta := 0.0
		if r.BaselineCostUSD > 0 {
			costDelta = 100 * (a.CostUSD - r.BaselineCostUSD) / r.BaselineCostUSD
		}
		cost := clamp(100-math.Max(0, costDelta), 0, 100)
		if r.RecoveryTargetPct > 0 {
			a.Score = float64(0.45*attain) + float64(0.2*survival) + float64(0.2*cost) + float64(0.15*recoveryScore(a.RecoverySecs))
		} else {
			a.Score = float64(0.5*attain) + float64(0.25*survival) + float64(0.25*cost)
		}
		a.SLOGainPct = a.SLOAttainmentPct - r.SLOAttainmentPct
		a.CostDeltaPct = 0
		if r.CostUSD > 0 {
			a.CostDeltaPct = 100 * (a.CostUSD - r.CostUSD) / r.CostUSD
		}
		a.Dominates = a.SLOGainPct > 0 && a.CostDeltaPct <= 0
		for _, f := range []*float64{
			&a.SLOAttainmentPct, &a.ViolationPct, &a.DropFraction, &a.CostUSD,
			&a.Score, &a.SLOGainPct, &a.CostDeltaPct, &a.MeanAbsDivergence,
			&a.RecoverySecs,
		} {
			*f = round6(*f)
		}
	}
}

// recoveryScore maps a worst-episode recovery time to [0, 100]: instant
// recovery (or no dip at all) scores 100, one hour scores 0, and a run that
// never recovered (−1) scores 0 — an unrecovered fault is at least as bad as
// any finite recovery.
func recoveryScore(worstSecs float64) float64 {
	if worstSecs < 0 {
		return 0
	}
	return clamp(100*(1-worstSecs/3600), 0, 100)
}

// EncodeJSON returns the indented, deterministic JSON encoding (struct field
// order plus encoding/json's sorted map keys).
func (r *Report) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func round6(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Round(x*1e6) / 1e6
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
