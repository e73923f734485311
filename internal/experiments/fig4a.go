package experiments

import (
	"fmt"
	"io"

	"repro/internal/microsim"
	"repro/internal/stats"
)

// Fig4aResult is the §6.1 load-balancing experiment: six servers, a
// correlated revocation of the four larger ones at minute 3, replacements
// started within the warning. It runs request by request on the
// discrete-event simulator (the testbed's control plane on a virtual clock)
// at the paper's time scale, once transiency-aware and once vanilla, and is
// deterministic per seed.
type Fig4aResult struct {
	AwareDrops   float64
	VanillaDrops float64
	// VanillaPostDrops is the drop fraction after the revoked servers
	// terminate (paper: 85%).
	VanillaPostDrops float64
	// AwareP99 is the overall p99 latency of the aware run (paper: < 1 s
	// end-to-end).
	AwareP99 float64
}

// fig4aScenario builds the §6.1 setup at full scale: capacities 1:1
// (100/200/160 req/s pairs ≈ the m4.xlarge/m4.2xlarge/m2.4xlarge testbed),
// 600 req/s offered, revocation of the four larger servers at minute 3,
// servers booting in 55 s, 120 s warning.
func fig4aScenario(vanilla bool, seed int64) microsim.Config {
	return microsim.Config{
		Seed: seed, Duration: 480, Rate: 600, Sessions: 2000,
		Servers:     []float64{100, 100, 200, 200, 160, 160},
		Revocations: []microsim.Revocation{{At: 180, Servers: []int{2, 3, 4, 5}}},
		StartDelay:  55,
		Warning:     120,
		Vanilla:     vanilla,
	}
}

// Fig4a runs both variants and prints the boxplot series.
func Fig4a(w io.Writer, opt Options) Fig4aResult {
	run := func(vanilla bool) (*microsim.Result, []stats.FiveNum) {
		r, err := microsim.Run(fig4aScenario(vanilla, opt.RunSeed()))
		if err != nil {
			panic(err)
		}
		var bins []stats.FiveNum
		for from := 0.0; from < 480; from += 30 {
			var bin stats.FiveNum
			if lats := r.LatenciesBetween(from, from+30); len(lats) > 0 {
				bin = stats.Summarize(lats)
			}
			bins = append(bins, bin)
		}
		return r, bins
	}
	aware, awareBins := run(false)
	vanilla, vanillaBins := run(true)
	res := Fig4aResult{AwareDrops: aware.DropFraction(), VanillaDrops: vanilla.DropFraction()}
	post := vanilla.DropsBetween(310, 480)
	postServed := len(vanilla.LatenciesBetween(310, 480))
	if post+postServed > 0 {
		res.VanillaPostDrops = float64(post) / float64(post+postServed)
	}
	if all := aware.LatenciesBetween(0, 480); len(all) > 0 {
		res.AwareP99 = stats.Quantile(all, 0.99)
	}

	fmt.Fprintf(w, "Fig 4(a) [discrete-event rendition, full time scale]\n")
	fmt.Fprintf(w, "%-8s | %-38s | %s\n", "minute", "aware med/p75/max (ms)", "vanilla med/p75/max (ms)")
	for i, a := range awareBins {
		v := vanillaBins[i]
		fmt.Fprintf(w, "%7.1f | %8.1f %8.1f %9.1f (n=%5d) | %8.1f %8.1f %9.1f (n=%5d)\n",
			float64(i)/2, 1000*a.Median, 1000*a.Q3, 1000*a.Max, a.N,
			1000*v.Median, 1000*v.Q3, 1000*v.Max, v.N)
	}
	fmt.Fprintf(w, "drops: aware %.2f%% vs vanilla %.1f%% (vanilla post-termination %.1f%%)\n",
		100*res.AwareDrops, 100*res.VanillaDrops, 100*res.VanillaPostDrops)
	fmt.Fprintf(w, "aware p99 latency end-to-end: %.0f ms (paper: < 1 s)\n", 1000*res.AwareP99)
	return res
}
