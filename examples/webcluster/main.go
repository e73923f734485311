// Webcluster: the paper's §6.1 testbed scenario live, in compressed time —
// six HTTP servers behind the transiency-aware load balancer, a correlated
// revocation of the four largest servers mid-run, replacements booting
// within the warning period, and per-half-minute latency boxplots printed
// as the run progresses. Pass -vanilla to watch the unmodified-balancer
// baseline shed most of its traffic instead.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/testbed"
)

func main() {
	vanilla := flag.Bool("vanilla", false, "run the transiency-unaware baseline")
	minute := flag.Duration("minute", time.Second, "compressed length of one paper-minute")
	flag.Parse()

	cfg := testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			BaseServiceTime: 4 * time.Millisecond,
			StartDelay:      *minute, // servers boot in "under a minute"
			WarmupDur:       *minute, // Memcached cold-cache warm-up
		},
		Warning: 2 * *minute, // the cloud's revocation warning
		Vanilla: *vanilla,
	}
	if *vanilla {
		cfg.FailDetect = 1 << 30
	}
	c := testbed.NewCluster(cfg)
	defer c.Close()

	// Two m4.xlarge-class, two m4.2xlarge-class and two m2.4xlarge-class
	// servers (capacities scaled 1:4 from the paper).
	var victims []int
	for _, cap := range []float64{25, 25} {
		c.AddBackend(cap)
	}
	for _, cap := range []float64{50, 50, 40, 40} {
		b := c.AddBackend(cap)
		victims = append(victims, b.ID)
	}
	fmt.Printf("cluster up: 6 backends, 230 req/s aggregate; load 150 req/s (vanilla=%v)\n", *vanilla)
	time.Sleep(cfg.Backend.StartDelay + cfg.Backend.WarmupDur)

	const rate = 150.0
	total := 8 * *minute
	rec := testbed.NewRecorder()
	done := make(chan struct{})
	go func() {
		testbed.LoadGen(c, rate, total, 40, rec)
		close(done)
	}()

	go func() {
		time.Sleep(3 * *minute)
		fmt.Printf("minute 3: revocation warning for backends %v (the two larger types)\n", victims)
		c.Revoke(victims, rate)
	}()

	// Print a boxplot row per half-minute as the experiment runs.
	bin := *minute / 2
	for from := time.Duration(0); from < total; from += bin {
		time.Sleep(bin)
		lats, drops := rec.Window(from, from+bin)
		if len(lats) == 0 {
			fmt.Printf("minute %4.1f: all %d requests dropped\n", from.Seconds()/minute.Seconds(), drops)
			continue
		}
		s := stats.Summarize(lats)
		fmt.Printf("minute %4.1f: latency med %5.1fms p75 %5.1fms max %5.1fms  (n=%d, dropped=%d)\n",
			from.Seconds()/minute.Seconds(),
			1000*s.Median, 1000*s.Q3, 1000*s.Max, s.N, drops)
	}
	<-done

	served, dropped := rec.Totals()
	fmt.Printf("\ntotal: served %d, dropped %d (%.1f%%)\n",
		served, dropped, 100*float64(dropped)/float64(served+dropped))
}
