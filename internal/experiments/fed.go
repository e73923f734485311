package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"repro/internal/federation"
	"repro/internal/portfolio"
	"repro/internal/predict"
)

// FedScaleOptions sizes the federation scaling benchmark.
type FedScaleOptions struct {
	// Regions/AZs/Types size the main configuration; the merged market count
	// is Regions × AZs × Types.
	Regions int
	AZs     int
	Types   int
	// Rounds bounds the budget-split coordination loop (0 = default).
	Rounds int
	// Parallelism bounds the shard-solve worker pool
	// (federation.PlannerConfig.Parallelism).
	Parallelism int
	// OutFile, when set, also writes the result as JSON (the BENCH_fed.json
	// artifact).
	OutFile string
}

// FedRound times one planning round of the main configuration.
type FedRound struct {
	Step        int     `json:"step"`
	Seconds     float64 `json:"seconds"`
	CoordRounds int     `json:"coord_rounds"`
	Iterations  int     `json:"iterations"`
}

// FedScalePoint is one row of the shard-scaling sweep: regions grow at a
// constant per-region size, so markets grow proportionally and near-linear
// scaling shows as a flat markets-per-second column.
type FedScalePoint struct {
	Regions          int     `json:"regions"`
	Shards           int     `json:"shards"`
	Markets          int     `json:"markets"`
	MeanRoundSeconds float64 `json:"mean_round_seconds"`
	MarketsPerSecond float64 `json:"markets_per_second"`
}

// FedScaleResult is the full benchmark output (checked in as
// BENCH_fed.json by scripts/bench_fed.sh).
type FedScaleResult struct {
	Host             FedHost         `json:"host"`
	Seed             int64           `json:"seed"`
	Regions          int             `json:"regions"`
	AZsPerRegion     int             `json:"azs_per_region"`
	TypesPerAZ       int             `json:"types_per_az"`
	Shards           int             `json:"shards"`
	Markets          int             `json:"markets"`
	Rounds           []FedRound      `json:"rounds"`
	MeanRoundSeconds float64         `json:"mean_round_seconds"`
	MaxRoundSeconds  float64         `json:"max_round_seconds"`
	MarketsPerSecond float64         `json:"markets_per_second"`
	Scaling          []FedScalePoint `json:"scaling"`
}

// FedHost records the machine a FedScaleResult was measured on: its wall
// times mean nothing without it.
type FedHost struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// fedScaleSteps is the number of receding-horizon planning rounds timed: the
// first is a cold solve, the rest are warm.
const fedScaleSteps = 6

// FedScale runs the federated-planner scaling benchmark: fedScaleSteps
// receding-horizon planning rounds over the full Regions×AZs×Types
// federation, then a sweep over fewer regions at constant per-region size to
// show shard scaling. It prints a table and optionally writes the JSON
// artifact.
func FedScale(w io.Writer, opt Options, fopt FedScaleOptions) error {
	if fopt.Regions <= 0 {
		fopt.Regions = 8
	}
	if fopt.AZs <= 0 {
		fopt.AZs = 1
	}
	if fopt.Types <= 0 {
		fopt.Types = 6
	}
	res := FedScaleResult{
		Host: FedHost{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Seed: opt.RunSeed(), Regions: fopt.Regions, AZsPerRegion: fopt.AZs, TypesPerAZ: fopt.Types,
	}

	rounds, shards, markets, err := fedRun(opt, fopt, fopt.Regions)
	if err != nil {
		return err
	}
	res.Rounds, res.Shards, res.Markets = rounds, shards, markets
	var sum, max float64
	for _, r := range rounds {
		sum += r.Seconds
		if r.Seconds > max {
			max = r.Seconds
		}
	}
	res.MeanRoundSeconds = sum / float64(len(rounds))
	res.MaxRoundSeconds = max
	res.MarketsPerSecond = float64(markets) / res.MeanRoundSeconds

	fmt.Fprintf(w, "Federated planner scaling (seed %d)\n", res.Seed)
	fmt.Fprintf(w, "main: %d regions x %d AZs x %d types = %d markets in %d shards\n",
		fopt.Regions, fopt.AZs, fopt.Types, markets, shards)
	fmt.Fprintf(w, "%-6s %-12s %-12s %s\n", "step", "seconds", "coordrounds", "iterations")
	for _, r := range rounds {
		fmt.Fprintf(w, "%-6d %-12.3f %-12d %d\n", r.Step, r.Seconds, r.CoordRounds, r.Iterations)
	}
	fmt.Fprintf(w, "mean %.3f s/round, max %.3f s/round, %.0f markets/s\n",
		res.MeanRoundSeconds, res.MaxRoundSeconds, res.MarketsPerSecond)

	// Shard-scaling sweep at constant per-region size.
	fmt.Fprintf(w, "\n%-8s %-8s %-9s %-18s %s\n", "regions", "shards", "markets", "mean_round_sec", "markets/s")
	for _, r := range scalePoints(fopt.Regions) {
		sr, nsh, nmk, err := fedRun(opt, fopt, r)
		if err != nil {
			return err
		}
		var s float64
		for _, rr := range sr {
			s += rr.Seconds
		}
		mean := s / float64(len(sr))
		pt := FedScalePoint{
			Regions: r, Shards: nsh, Markets: nmk,
			MeanRoundSeconds: mean, MarketsPerSecond: float64(nmk) / mean,
		}
		res.Scaling = append(res.Scaling, pt)
		fmt.Fprintf(w, "%-8d %-8d %-9d %-18.3f %.0f\n",
			pt.Regions, pt.Shards, pt.Markets, pt.MeanRoundSeconds, pt.MarketsPerSecond)
	}

	if fopt.OutFile != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(fopt.OutFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", fopt.OutFile)
	}
	return nil
}

// scalePoints returns the region counts of the scaling sweep: quarter, half
// and full (deduplicated, ≥ 1).
func scalePoints(regions int) []int {
	pts := []int{regions / 4, regions / 2, regions}
	out := pts[:0]
	seen := map[int]bool{}
	for _, p := range pts {
		if p < 1 {
			p = 1
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// fedRun times fedScaleSteps planning rounds over a federation of the given
// region count and returns the per-round numbers.
func fedRun(opt Options, fopt FedScaleOptions, regions int) ([]FedRound, int, int, error) {
	fed, err := federation.Build(federation.Config{
		Regions:      regions,
		AZsPerRegion: fopt.AZs,
		TypesPerAZ:   fopt.Types,
		Hours:        72,
		Seed:         opt.RunSeed(),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	pcfg := federation.PlannerConfig{
		Portfolio: portfolio.Config{
			Horizon: 4, ChurnKappa: 1.0, DisableWarmStart: opt.ColdStart,
		},
		CoordRounds: fopt.Rounds,
		Parallelism: fopt.Parallelism,
	}
	wl := predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: fed.Merged.StepHrs, ARLag1: true, CIProb: 0.99,
	}, 4)
	pl := federation.NewPlanner(fed, pcfg, wl, portfolio.MeanRevertSource{Cat: fed.Merged})

	rounds := make([]FedRound, 0, fedScaleSteps)
	for t := 0; t < fedScaleSteps; t++ {
		lambda := 5000 + 2000*math.Sin(2*math.Pi*float64(t)/12)
		dec, err := pl.Step(t, lambda)
		if err != nil {
			return nil, 0, 0, err
		}
		st := pl.LastStats()
		rounds = append(rounds, FedRound{
			Step: t, Seconds: st.WallSeconds, CoordRounds: st.Rounds,
			Iterations: dec.Plan.Iterations,
		})
	}
	return rounds, len(fed.Shards), fed.Len(), nil
}
