package market

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Paper-named instance types. Capacities follow the paper where stated
// (r5d.24xlarge serves 1920 req/s, r5.4xlarge and r4.4xlarge serve 320) and
// otherwise scale with vCPUs at ≈20 req/s per vCPU, calibrated so the most
// expensive per-request cost (x1e.16xlarge) is 0.01 $/hr per req/s as in §6.
var paperTypes = map[string]InstanceType{
	"m4.xlarge":    {Name: "m4.xlarge", VCPUs: 4, MemGiB: 16, Capacity: 100, OnDemandPrice: 0.20},
	"m4.2xlarge":   {Name: "m4.2xlarge", VCPUs: 8, MemGiB: 32, Capacity: 200, OnDemandPrice: 0.40},
	"m4.4xlarge":   {Name: "m4.4xlarge", VCPUs: 16, MemGiB: 64, Capacity: 400, OnDemandPrice: 0.80},
	"m2.4xlarge":   {Name: "m2.4xlarge", VCPUs: 8, MemGiB: 68.4, Capacity: 160, OnDemandPrice: 0.98},
	"r5d.24xlarge": {Name: "r5d.24xlarge", VCPUs: 96, MemGiB: 768, Capacity: 1920, OnDemandPrice: 6.912},
	"r5.4xlarge":   {Name: "r5.4xlarge", VCPUs: 16, MemGiB: 128, Capacity: 320, OnDemandPrice: 1.008},
	"r4.4xlarge":   {Name: "r4.4xlarge", VCPUs: 16, MemGiB: 122, Capacity: 320, OnDemandPrice: 1.064},
	"x1e.16xlarge": {Name: "x1e.16xlarge", VCPUs: 64, MemGiB: 1952, Capacity: 1334, OnDemandPrice: 13.344},
}

// CatalogConfig parameterizes synthetic catalog generation.
type CatalogConfig struct {
	Seed int64
	// NumTypes is S; with IncludeOnDemand the catalog holds N = 2S markets.
	NumTypes        int
	IncludeOnDemand bool
	Hours           int
	SamplesPerHour  int
	// Groups is the number of correlated demand pools transient markets are
	// assigned to (revocation surges are correlated within a group).
	Groups int
	// MeanDiscount is the average spot discount (price fraction of
	// on-demand, default 0.25 ⇒ 75% off, within the paper's 70–90% band).
	MeanDiscount float64
	// BaseFailProb is the resting per-interval revocation probability.
	BaseFailProb float64
	// VolatilityScale and ReversionScale multiply the per-market drawn
	// price-process parameters (0 ⇒ 1, i.e. unscaled). They let federation
	// providers flavor the shared generator — e.g. a calmer, slower-reverting
	// Azure-style price process vs a choppier AWS-style one — without
	// perturbing the RNG stream, so a zero-valued config generates catalogs
	// identical to those from before these knobs existed.
	VolatilityScale float64
	ReversionScale  float64
}

func (c CatalogConfig) withDefaults() CatalogConfig {
	if c.NumTypes <= 0 {
		c.NumTypes = 18
	}
	if c.Hours <= 0 {
		c.Hours = 24 * 60
	}
	if c.SamplesPerHour <= 0 {
		c.SamplesPerHour = 1
	}
	if c.Groups <= 0 {
		c.Groups = int(math.Max(1, math.Sqrt(float64(c.NumTypes))))
	}
	if c.MeanDiscount <= 0 || c.MeanDiscount >= 1 {
		c.MeanDiscount = 0.25
	}
	if c.BaseFailProb <= 0 {
		c.BaseFailProb = 0.04
	}
	if c.VolatilityScale <= 0 {
		c.VolatilityScale = 1
	}
	if c.ReversionScale <= 0 {
		c.ReversionScale = 1
	}
	return c
}

// Generate builds a synthetic catalog. Types span size families (capacity
// doubling across sizes), with per-type price volatility, discount depth and
// failure behaviour drawn per market, and correlated failure surges inside
// each group (which is what makes diversification across groups valuable).
func (c CatalogConfig) Generate() *Catalog {
	cfg := c.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Hours * cfg.SamplesPerHour
	step := 1.0 / float64(cfg.SamplesPerHour)

	// Group surge windows: per group, a set of (start, duration) windows
	// during which member markets see elevated failure probability and
	// elevated prices.
	type window struct{ start, dur float64 }
	groupSurges := make([][]window, cfg.Groups)
	for g := range groupSurges {
		nw := 2 + rng.Intn(5)
		for k := 0; k < nw; k++ {
			groupSurges[g] = append(groupSurges[g], window{
				start: rng.Float64() * float64(cfg.Hours),
				dur:   3 + rng.Float64()*15,
			})
		}
	}

	families := []string{"c5", "m5", "r5", "m4", "r4", "i3", "t3", "d2", "h1", "z1d"}
	sizes := []struct {
		suffix string
		vcpus  int
	}{
		{"large", 2}, {"xlarge", 4}, {"2xlarge", 8}, {"4xlarge", 16},
		{"8xlarge", 32}, {"12xlarge", 48}, {"16xlarge", 64}, {"24xlarge", 96},
	}

	cat := &Catalog{StepHrs: step, Intervals: n}
	for i := 0; i < cfg.NumTypes; i++ {
		fam := families[i%len(families)]
		size := sizes[(i/len(families))%len(sizes)]
		vcpus := size.vcpus
		// Per-family price-per-vCPU with some spread; capacity ≈ 20 req/s
		// per vCPU with family-dependent efficiency.
		ppv := 0.045 + 0.02*rng.Float64()
		eff := 0.8 + 0.5*rng.Float64()
		it := InstanceType{
			Name:          fmt.Sprintf("%s.%s", fam, size.suffix),
			VCPUs:         vcpus,
			MemGiB:        float64(vcpus) * (2 + 6*rng.Float64()),
			Capacity:      math.Round(float64(vcpus) * 20 * eff),
			OnDemandPrice: float64(vcpus) * ppv,
		}
		group := i % cfg.Groups

		discount := cfg.MeanDiscount * (0.6 + 0.8*rng.Float64())
		// Spot prices are volatile and fast-mean-reverting (half-life of a
		// couple of hours): the market that looks cheapest right now is
		// typically in a transient dip and reverts upward — the dynamics
		// that reward forecast-aware selection over backward-looking
		// min-chasing as the market count grows (Fig. 6(b)).
		price := trace.PriceConfig{
			Seed:          cfg.Seed + int64(i)*7919,
			OnDemandPrice: it.OnDemandPrice,
			MeanDiscount:  discount,
			Volatility:    (0.18 + 0.2*rng.Float64()) * cfg.VolatilityScale,
			Reversion:     (0.3 + 0.4*rng.Float64()) * cfg.ReversionScale,
			JumpsPerWeek:  1 + 3*rng.Float64(),
			JumpMagnitude: 0.4 + rng.Float64(),
			Hours:         cfg.Hours, SamplesPerHour: cfg.SamplesPerHour,
		}.Generate()

		fail := trace.FailureConfig{
			Seed:          cfg.Seed + int64(i)*104729,
			BaseProb:      cfg.BaseFailProb * (0.5 + rng.Float64()),
			DriftsPerWeek: 1 + 2*rng.Float64(), SurgeProb: 0,
			SurgesPerWeek: 0,
			Hours:         cfg.Hours, SamplesPerHour: cfg.SamplesPerHour,
		}.Generate()
		// Inject the group-correlated surges on top of the idiosyncratic
		// base process.
		surgeLift := 0.08 + 0.1*rng.Float64()
		for k := 0; k < n; k++ {
			hr := float64(k) * step
			for _, w := range groupSurges[group] {
				if hr >= w.start && hr < w.start+w.dur {
					fail.Values[k] += surgeLift
					price.Values[k] = math.Min(it.OnDemandPrice, price.Values[k]*1.5)
				}
			}
			if fail.Values[k] > 0.5 {
				fail.Values[k] = 0.5
			}
		}

		cat.Markets = append(cat.Markets, &Market{
			Type: it, Transient: true, Price: price, FailProb: fail, Group: group,
		})
		if cfg.IncludeOnDemand {
			od := trace.ConstantSeries(it.Name+"-od", step, n, it.OnDemandPrice)
			zero := trace.ConstantSeries(it.Name+"-odf", step, n, 0)
			cat.Markets = append(cat.Markets, &Market{
				Type: it, Transient: false, Price: od, FailProb: zero, Group: -1,
			})
		}
	}
	return cat
}

// GoogleLikeCatalog mirrors the Google Cloud regime discussed in §7: fixed
// preemptible prices (a constant ~70% discount, no spot-price dynamics),
// per-type preemption probabilities drawn between 0.05 and 0.15, and all
// instances force-terminated after 24 hours (enforced by the simulator's
// MaxLifetimeHrs). On-demand variants are included.
func GoogleLikeCatalog(seed int64, numTypes, hours, samplesPerHour int) *Catalog {
	cfg := CatalogConfig{Seed: seed, NumTypes: numTypes, Hours: hours,
		SamplesPerHour: samplesPerHour}.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Hours * cfg.SamplesPerHour
	step := 1.0 / float64(cfg.SamplesPerHour)

	sizes := []struct {
		name  string
		vcpus int
	}{
		{"n1-standard-2", 2}, {"n1-standard-4", 4}, {"n1-standard-8", 8},
		{"n1-standard-16", 16}, {"n1-standard-32", 32}, {"n1-standard-64", 64},
		{"n1-highmem-8", 8}, {"n1-highmem-16", 16}, {"n1-highcpu-32", 32},
		{"n1-highcpu-64", 64},
	}
	cat := &Catalog{StepHrs: step, Intervals: n}
	for i := 0; i < cfg.NumTypes; i++ {
		sz := sizes[i%len(sizes)]
		eff := 0.85 + 0.4*rng.Float64()
		it := InstanceType{
			Name:          fmt.Sprintf("%s-v%d", sz.name, i/len(sizes)),
			VCPUs:         sz.vcpus,
			MemGiB:        float64(sz.vcpus) * 3.75,
			Capacity:      math.Round(float64(sz.vcpus) * 20 * eff),
			OnDemandPrice: float64(sz.vcpus) * 0.0475,
		}
		// Preemptible: fixed ~70% discount, constant price.
		price := trace.ConstantSeries(it.Name+"-pvm", step, n, 0.30*it.OnDemandPrice)
		// Preemption probability between 0.05 and 0.15, per §7.
		fail := trace.ConstantSeries(it.Name+"-f", step, n, 0.05+0.10*rng.Float64())
		cat.Markets = append(cat.Markets, &Market{
			Type: it, Transient: true, Price: price, FailProb: fail, Group: i % cfg.Groups,
		})
		od := trace.ConstantSeries(it.Name+"-od", step, n, it.OnDemandPrice)
		zero := trace.ConstantSeries(it.Name+"-odf", step, n, 0)
		cat.Markets = append(cat.Markets, &Market{
			Type: it, Transient: false, Price: od, FailProb: zero, Group: -1,
		})
	}
	return cat
}

// Fig5Catalog builds the three-market setup of the paper's Fig. 5:
// r5d.24xlarge, r5.4xlarge and r4.4xlarge spot markets whose per-request
// prices cross over time, all with equal failure probability below 5%.
func Fig5Catalog(seed int64, hours int) *Catalog {
	names := []string{"r5d.24xlarge", "r5.4xlarge", "r4.4xlarge"}
	cat := &Catalog{StepHrs: 1, Intervals: hours}
	for i, name := range names {
		it := paperTypes[name]
		price := trace.PriceConfig{
			Seed:          seed + int64(i)*31,
			OnDemandPrice: it.OnDemandPrice,
			MeanDiscount:  0.28 + 0.04*float64(i),
			Volatility:    0.16,
			Reversion:     0.10,
			JumpsPerWeek:  6,
			JumpMagnitude: 0.5,
			Hours:         hours, SamplesPerHour: 1,
		}.Generate()
		fail := trace.ConstantSeries(name+"-f", 1, hours, 0.04)
		cat.Markets = append(cat.Markets, &Market{
			Type: it, Transient: true, Price: price, FailProb: fail, Group: i,
		})
	}
	return cat
}

// TestbedCatalog builds the Fig. 4(a) testbed mix: m4.xlarge, m4.2xlarge and
// m2.4xlarge spot markets (two machines of each in the experiment).
func TestbedCatalog(seed int64, hours int) *Catalog {
	names := []string{"m4.xlarge", "m4.2xlarge", "m2.4xlarge"}
	cat := &Catalog{StepHrs: 1, Intervals: hours}
	for i, name := range names {
		it := paperTypes[name]
		price := trace.PriceConfig{
			Seed:          seed + int64(i)*17,
			OnDemandPrice: it.OnDemandPrice,
			MeanDiscount:  0.3,
			Volatility:    0.05,
			Reversion:     0.08,
			JumpsPerWeek:  1,
			JumpMagnitude: 0.4,
			Hours:         hours, SamplesPerHour: 1,
		}.Generate()
		fail := trace.ConstantSeries(name+"-f", 1, hours, 0.05)
		cat.Markets = append(cat.Markets, &Market{
			Type: it, Transient: true, Price: price, FailProb: fail, Group: i,
		})
	}
	return cat
}
