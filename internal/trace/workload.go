// Package trace generates and manipulates the time series the SpotWeb
// experiments consume: request-arrival workloads (a diurnal low-spike
// "Wikipedia-like" trace and a spiky "VoD-like" trace, standing in for the
// paper's English-Wikipedia June-2008 and TV4 January-2013 traces), spot
// market price processes, and revocation-probability processes, plus CSV
// encode/decode so traces can be exported and replayed.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Series is a regularly sampled time series. Step is the sampling interval
// in hours; Values[i] is the value at time i*Step hours.
type Series struct {
	Name     string
	StepHrs  float64
	Values   []float64
	UnitName string
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// At returns the i'th sample; it panics on out-of-range indices.
func (s *Series) At(i int) float64 { return s.Values[i] }

// Slice returns a view of the series restricted to [from, to).
func (s *Series) Slice(from, to int) *Series {
	return &Series{Name: s.Name, StepHrs: s.StepHrs, Values: s.Values[from:to], UnitName: s.UnitName}
}

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	out := *s
	out.Values = append([]float64(nil), s.Values...)
	return &out
}

// WorkloadConfig parameterizes the synthetic web workload generator. The
// model is: base + diurnal + weekly trend + multiplicative noise + spikes,
// matching the structure the paper's predictor (spline for the repeating
// pattern, AR for spikes) is designed around.
type WorkloadConfig struct {
	Seed int64
	// Days of trace to generate and samples per hour.
	Days           int
	SamplesPerHour int
	// BaseRate is the mean request rate (req/s).
	BaseRate float64
	// DiurnalAmplitude is the fraction of BaseRate swung by time-of-day
	// (0.5 means ±50%).
	DiurnalAmplitude float64
	// WeekendFactor scales weekend load (e.g. 0.8 = 20% quieter weekends).
	WeekendFactor float64
	// GrowthPerWeek is the fractional load growth per week (steady trend).
	GrowthPerWeek float64
	// NoiseStdDev is multiplicative Gaussian noise (fraction of level).
	NoiseStdDev float64
	// SpikesPerWeek is the expected number of load spikes per week;
	// SpikeMagnitude the mean multiplicative spike height (e.g. 1.8 = +80%);
	// SpikeDurationHrs the mean spike duration.
	SpikesPerWeek    float64
	SpikeMagnitude   float64
	SpikeDurationHrs float64
}

// WikipediaLike returns a configuration mimicking the paper's English
// Wikipedia trace: strong diurnal pattern, weekly structure, very few spikes.
func WikipediaLike(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:             seed,
		Days:             21,
		SamplesPerHour:   1,
		BaseRate:         3000,
		DiurnalAmplitude: 0.45,
		WeekendFactor:    0.85,
		GrowthPerWeek:    0.01,
		NoiseStdDev:      0.03,
		SpikesPerWeek:    0.4,
		SpikeMagnitude:   1.35,
		SpikeDurationHrs: 2,
	}
}

// VoDLike returns a configuration mimicking the TV4 video-on-demand trace:
// evening-heavy diurnal pattern with multiple hard-to-predict spikes
// (premieres, sports events).
func VoDLike(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:             seed,
		Days:             21,
		SamplesPerHour:   1,
		BaseRate:         1500,
		DiurnalAmplitude: 0.70,
		WeekendFactor:    1.25,
		GrowthPerWeek:    0.0,
		NoiseStdDev:      0.08,
		SpikesPerWeek:    5,
		SpikeMagnitude:   2.2,
		SpikeDurationHrs: 1.5,
	}
}

// Generate produces the workload series (request rate in req/s).
func (c WorkloadConfig) Generate() *Series {
	if c.Days <= 0 || c.SamplesPerHour <= 0 || c.BaseRate <= 0 {
		panic(fmt.Sprintf("trace: invalid workload config %+v", c))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	n := c.Days * 24 * c.SamplesPerHour
	step := 1.0 / float64(c.SamplesPerHour)
	vals := make([]float64, n)

	// Pre-draw spike windows.
	type spike struct {
		startHr, durHr, mag float64
	}
	weeks := float64(c.Days) / 7.0
	nSpikes := poisson(rng, c.SpikesPerWeek*weeks)
	spikes := make([]spike, nSpikes)
	for i := range spikes {
		spikes[i] = spike{
			startHr: rng.Float64() * float64(c.Days) * 24,
			durHr:   math.Max(0.25, c.SpikeDurationHrs*(0.5+rng.Float64())),
			mag:     1 + (c.SpikeMagnitude-1)*(0.6+0.8*rng.Float64()),
		}
	}

	for i := 0; i < n; i++ {
		hr := float64(i) * step
		hourOfDay := math.Mod(hr, 24)
		day := int(hr / 24)
		// Diurnal shape: trough ~04:00, peak ~20:00 for web traffic.
		phase := 2 * math.Pi * (hourOfDay - 14) / 24
		diurnal := 1 + c.DiurnalAmplitude*math.Sin(phase)
		// Weekly shape.
		weekly := 1.0
		if wd := day % 7; wd == 5 || wd == 6 {
			weekly = c.WeekendFactor
		}
		// Trend.
		trend := 1 + c.GrowthPerWeek*hr/(24*7)
		level := c.BaseRate * diurnal * weekly * trend
		// Spikes.
		for _, sp := range spikes {
			if hr >= sp.startHr && hr < sp.startHr+sp.durHr {
				// Smooth ramp in/out over the spike window.
				frac := (hr - sp.startHr) / sp.durHr
				shape := math.Sin(math.Pi * frac)
				level *= 1 + (sp.mag-1)*shape
			}
		}
		// Multiplicative noise.
		level *= 1 + c.NoiseStdDev*rng.NormFloat64()
		if level < 0 {
			level = 0
		}
		vals[i] = level
	}
	return &Series{Name: "workload", StepHrs: step, Values: vals, UnitName: "req/s"}
}

// poisson draws a Poisson(lambda) variate (Knuth's method; lambda here is
// always small).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}
