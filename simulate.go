package spotweb

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SimResult is the outcome of a Simulate run (re-exported from the internal
// simulator).
type SimResult = sim.Result

// SimOptions configures Simulate. Catalog and Workload are required.
type SimOptions struct {
	// Catalog is the market universe.
	Catalog *Catalog
	// Workload is the request-rate series (req/s), one value per catalog
	// interval.
	Workload []float64
	// Controller configures the SpotWeb policy under test; its Catalog
	// field is ignored (the simulation catalog is used).
	Controller ControllerOptions
	// Seed drives revocation sampling.
	Seed int64
	// Vanilla disables the transiency-aware balancer (baseline behaviour).
	Vanilla bool
	// HourlyBilling charges whole started instance-hours (default true —
	// pass PerSecondBilling to disable).
	PerSecondBilling bool
	// MaxLifetimeHrs enforces a provider lifetime cap (0 = none).
	MaxLifetimeHrs float64
	// QueueDeadlineSec lets admission control delay rather than drop
	// overload (0 = pure drop).
	QueueDeadlineSec float64
}

// Simulate runs the SpotWeb controller against a workload on the simulator
// — the programmatic what-if evaluation a deployment would run before going
// live: expected cost, drops, SLO violations, revocation counts.
func Simulate(opt SimOptions) (*SimResult, error) {
	if opt.Catalog == nil {
		return nil, fmt.Errorf("spotweb: SimOptions.Catalog is required")
	}
	if len(opt.Workload) < 2 {
		return nil, fmt.Errorf("spotweb: SimOptions.Workload needs at least 2 intervals")
	}
	copt := opt.Controller
	copt.Catalog = opt.Catalog
	ctrl, err := NewController(copt)
	if err != nil {
		return nil, err
	}
	s := &sim.Simulator{
		Cfg: sim.Config{
			Seed:             opt.Seed,
			TransiencyAware:  !opt.Vanilla,
			PerSecondBilling: opt.PerSecondBilling,
			MaxLifetimeHrs:   opt.MaxLifetimeHrs,
			QueueDeadlineSec: opt.QueueDeadlineSec,
		},
		Cat: opt.Catalog,
		Workload: &trace.Series{
			Name: "workload", StepHrs: opt.Catalog.StepHrs, Values: opt.Workload,
		},
		Policy: autoscale.Planner{Stepper: ctrl.planner, Label: "spotweb"},
	}
	return s.Run()
}
