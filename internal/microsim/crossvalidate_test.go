package microsim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// The request-level DES and the fluid latency model must agree: for a
// stationary M/M/1-PS station, the fluid model's Interval() and the DES's
// measured sojourn times both follow S/(1−ρ).
func TestCrossValidateFluidLatencyModel(t *testing.T) {
	model := cluster.LatencyModel{BaseServiceTime: 0.01, MaxLatency: 5, SLOTarget: 1}
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.85} {
		capacity := 100.0
		// The fluid model quotes SLO capacities; its saturation rate is
		// capacity/(1−S/SLO). Offer load at rho × saturation so the DES and
		// the fluid model see the same physical utilization.
		sat := capacity / (1 - model.BaseServiceTime/model.SLOTarget)
		offered := rho * sat

		_, _, fluidLat := model.Interval(offered, capacity)

		res, err := Run(Config{
			Seed: int64(100 * rho), Duration: 600, Rate: offered,
			Servers: []float64{sat},
		})
		if err != nil {
			t.Fatal(err)
		}
		desLat := stats.Mean(res.LatenciesBetween(100, 600))
		// Note the DES service time is 1/sat; the fluid base is
		// BaseServiceTime = 1/100 ≈ 1/sat·(sat/100). Normalize by comparing
		// the queueing inflation factor 1/(1−ρ) instead of absolute times.
		fluidFactor := fluidLat / model.BaseServiceTime
		desFactor := desLat * sat // DES base service time is 1/sat
		if math.Abs(fluidFactor-desFactor) > 0.25*fluidFactor {
			t.Fatalf("rho=%v: fluid inflation %v vs DES %v", rho, fluidFactor, desFactor)
		}
	}
}

// Overload throughput must match between the models: both serve at the
// saturation rate and drop the excess.
func TestCrossValidateOverloadThroughput(t *testing.T) {
	model := cluster.DefaultLatencyModel()
	sloCap := 100.0
	offered := 180.0
	served, dropped, _ := model.Interval(offered, sloCap)
	fluidDropFrac := dropped / (served + dropped)

	sat := sloCap / (1 - model.BaseServiceTime/model.SLOTarget)
	res, err := Run(Config{
		Seed: 9, Duration: 300, Rate: offered,
		Servers: []float64{sat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DropFraction()-fluidDropFrac) > 0.1 {
		t.Fatalf("drop fractions diverge: fluid %v vs DES %v",
			fluidDropFrac, res.DropFraction())
	}
}
