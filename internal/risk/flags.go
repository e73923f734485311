package risk

import (
	"flag"

	"repro/internal/market"
	"repro/internal/metrics"
)

// Flags is the -risk/-risk-quantile/-risk-halflife flag trio of spotweb-lb,
// which has no run configuration; spotwebd and spotweb-sim bind the same
// three flags through runcfg.
type Flags struct {
	On       bool
	Quantile float64
	HalfLife float64
}

// BindFlags registers the risk flag trio on fs and returns the destination
// struct. Call before flag.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.On, "risk", false,
		"estimate per-market revocation risk online from observed revocations and publish corrected probabilities (at the default long-request share L = 0 they move no plan; the chaos runner's adaptive legs plan on them at L = 0.3)")
	fs.Float64Var(&f.Quantile, "risk-quantile", 0,
		"risk estimator upper-credible-bound quantile (0 = default 0.90)")
	fs.Float64Var(&f.HalfLife, "risk-halflife", 0,
		"risk estimator evidence half-life in catalog-hours (0 = default 24)")
	return f
}

// Enabled reports whether -risk was set.
func (f *Flags) Enabled() bool { return f != nil && f.On }

// Config translates the flags into an estimator config.
func (f *Flags) Config(reg *metrics.Registry) Config {
	return Config{Quantile: f.Quantile, HalfLifeHrs: f.HalfLife, Metrics: reg}
}

// Estimator constructs the estimator against a declared catalog prior, or
// returns nil when -risk is off.
func (f *Flags) Estimator(declared *market.Catalog, reg *metrics.Registry) *Estimator {
	if !f.Enabled() {
		return nil
	}
	return New(f.Config(reg), declared)
}
