package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/testbed"
)

// Fig4aResult holds the testbed load-balancing experiment of §6.1: six
// servers (two each of m4.xlarge, m4.2xlarge, m2.4xlarge equivalents),
// 70–95% utilization, correlated revocation of the two larger types at the
// 3-minute mark, replacements started within the warning period. Run once
// with the transiency-aware balancer and once with the vanilla baseline.
// Time is compressed: one paper-minute is one TimeScale unit.
type Fig4aResult struct {
	// Bin boxplots of latency per (scaled) 30-second window.
	AwareBins, VanillaBins []stats.FiveNum
	// Overall drop fractions.
	AwareDrops, VanillaDrops float64
	// VanillaPostRevocationDrops is the drop fraction in the window right
	// after the revoked servers terminate (the paper's "85% of requests").
	VanillaPostRevocationDrops float64
	// AwareP90Post is the p90 latency (seconds) during the recovery window
	// for the transiency-aware balancer (paper: < 700 ms at full scale).
	AwareP90Post float64
}

// fig4aScenario runs one testbed pass and returns binned boxplots plus the
// recorder.
func fig4aScenario(vanilla bool, minute time.Duration, opt Options) ([]stats.FiveNum, *testbed.Recorder) {
	cfg := testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			BaseServiceTime: 4 * time.Millisecond,
			StartDelay:      minute, // paper: machines start in < 1 minute
			WarmupDur:       minute, // Memcached warm-up 30–90 s
			QueueLimit:      1024,
		},
		Warning: 2 * minute, // paper warning period: up to 2 min
		Vanilla: vanilla,
	}
	if vanilla {
		cfg.FailDetect = 1 << 30 // paper's unmodified HAProxy keeps routing
	}
	c := testbed.NewCluster(cfg)
	defer c.Close()

	// Scaled capacities (÷4): m4.xlarge 25 r/s ×2, m4.2xlarge 50 ×2,
	// m2.4xlarge 40 ×2 ⇒ 230 total; load 150 r/s ⇒ ≈65–95% per-server.
	var victims []int
	for _, cap := range []float64{25, 25} {
		// Pre-warmed initial fleet: bypass boot by back-dating via zero
		// delay backends at start.
		c.AddBackend(cap)
	}
	for _, cap := range []float64{50, 50, 40, 40} {
		b := c.AddBackend(cap)
		victims = append(victims, b.ID)
	}
	// Let the initial fleet boot and warm before load starts.
	time.Sleep(cfg.Backend.StartDelay + cfg.Backend.WarmupDur + 50*time.Millisecond)

	const rate = 150.0
	total := 8 * minute
	rec := testbed.NewRecorder()
	done := make(chan struct{})
	go func() {
		testbed.LoadGen(c, rate, total, 40, rec)
		close(done)
	}()
	// Correlated revocation of the two larger instance types at minute 3.
	time.Sleep(3 * minute)
	c.Revoke(victims, rate)
	<-done

	// Boxplot per half-minute bin.
	bin := minute / 2
	var bins []stats.FiveNum
	for from := time.Duration(0); from < total; from += bin {
		lats, _ := rec.Window(from, from+bin)
		if len(lats) == 0 {
			bins = append(bins, stats.FiveNum{})
			continue
		}
		bins = append(bins, stats.Summarize(lats))
	}
	return bins, rec
}

// Fig4a runs the full §6.1 experiment and prints the boxplot series.
func Fig4a(w io.Writer, opt Options) Fig4aResult {
	minute := time.Second // compressed: 1 paper-minute = 1 s
	if opt.Quick {
		minute = 400 * time.Millisecond
	}
	awareBins, awareRec := fig4aScenario(false, minute, opt)
	vanillaBins, vanillaRec := fig4aScenario(true, minute, opt)

	var res Fig4aResult
	res.AwareBins, res.VanillaBins = awareBins, vanillaBins
	as, ad := awareRec.Totals()
	vs, vd := vanillaRec.Totals()
	if as+ad > 0 {
		res.AwareDrops = float64(ad) / float64(as+ad)
	}
	if vs+vd > 0 {
		res.VanillaDrops = float64(vd) / float64(vs+vd)
	}
	// Post-revocation window: minutes 5–7 (after the warning expires).
	postFrom, postTo := 5*minute, 7*minute
	vl, vdrop := vanillaRec.Window(postFrom, postTo)
	if len(vl)+vdrop > 0 {
		res.VanillaPostRevocationDrops = float64(vdrop) / float64(len(vl)+vdrop)
	}
	al, _ := awareRec.Window(postFrom, postTo)
	if len(al) > 0 {
		res.AwareP90Post = stats.Quantile(al, 0.90)
	}

	fmt.Fprintf(w, "Fig 4(a): latency around a correlated revocation at minute 3 (compressed time)\n")
	fmt.Fprintf(w, "%-6s | %-52s | %s\n", "bin", "transiency-aware (min/med/p75/max ms)", "vanilla")
	for i := range awareBins {
		a, v := awareBins[i], stats.FiveNum{}
		if i < len(vanillaBins) {
			v = vanillaBins[i]
		}
		fmt.Fprintf(w, "%5.1fm | %6.0f %6.0f %6.0f %6.0f (n=%4d) | %6.0f %6.0f %6.0f %6.0f (n=%4d)\n",
			float64(i)/2,
			1000*a.Min, 1000*a.Median, 1000*a.Q3, 1000*a.Max, a.N,
			1000*v.Min, 1000*v.Median, 1000*v.Q3, 1000*v.Max, v.N)
	}
	fmt.Fprintf(w, "drops: aware %.1f%% vs vanilla %.1f%% (vanilla post-revocation window: %.1f%%)\n",
		100*res.AwareDrops, 100*res.VanillaDrops, 100*res.VanillaPostRevocationDrops)
	fmt.Fprintf(w, "aware p90 latency during recovery: %.0f ms\n", 1000*res.AwareP90Post)
	return res
}
