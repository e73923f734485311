package trace

import (
	"math"
	"math/rand"
)

// BurstyConfig generates a Markov-modulated (MMPP-style) workload: the
// arrival rate switches between a small number of regimes with exponential
// sojourn times, layered on the diurnal base pattern. This models the bursty
// web workloads of the paper's reference [5] (Casale et al., "How to
// parameterize models with bursty workloads") and stresses predictors and
// the over-provisioning logic far harder than smooth traces.
type BurstyConfig struct {
	Seed int64
	// Days and samples per hour.
	Days           int
	SamplesPerHour int
	// BaseRate is the mean request rate (req/s).
	BaseRate float64
	// DiurnalAmplitude as in WorkloadConfig.
	DiurnalAmplitude float64
	// RegimeRates are multiplicative factors per regime (e.g. {1, 1.8, 3}).
	RegimeRates []float64
	// MeanSojournHrs is the average time spent in a regime before switching.
	MeanSojournHrs float64
	// NoiseStdDev is multiplicative Gaussian noise.
	NoiseStdDev float64
}

// BurstyDefault returns a three-regime bursty configuration.
func BurstyDefault(seed int64) BurstyConfig {
	return BurstyConfig{
		Seed:             seed,
		Days:             21,
		SamplesPerHour:   1,
		BaseRate:         2000,
		DiurnalAmplitude: 0.35,
		RegimeRates:      []float64{1.0, 1.6, 2.6},
		MeanSojournHrs:   5,
		NoiseStdDev:      0.05,
	}
}

// Generate produces the bursty series.
func (c BurstyConfig) Generate() *Series {
	if c.Days <= 0 || c.SamplesPerHour <= 0 || c.BaseRate <= 0 || len(c.RegimeRates) == 0 {
		panic("trace: invalid bursty config")
	}
	if c.MeanSojournHrs <= 0 {
		c.MeanSojournHrs = 5
	}
	rng := rand.New(rand.NewSource(c.Seed))
	n := c.Days * 24 * c.SamplesPerHour
	step := 1.0 / float64(c.SamplesPerHour)
	vals := make([]float64, n)

	regime := 0
	nextSwitch := rng.ExpFloat64() * c.MeanSojournHrs
	for i := 0; i < n; i++ {
		hr := float64(i) * step
		for hr >= nextSwitch {
			// Jump to a uniformly random different regime.
			next := rng.Intn(len(c.RegimeRates) - 1)
			if next >= regime {
				next++
			}
			regime = next
			nextSwitch += rng.ExpFloat64() * c.MeanSojournHrs
		}
		hod := math.Mod(hr, 24)
		diurnal := 1 + c.DiurnalAmplitude*math.Sin(2*math.Pi*(hod-14)/24)
		level := c.BaseRate * diurnal * c.RegimeRates[regime]
		level *= 1 + c.NoiseStdDev*rng.NormFloat64()
		if level < 0 {
			level = 0
		}
		vals[i] = level
	}
	return &Series{Name: "bursty", StepHrs: step, Values: vals, UnitName: "req/s"}
}
