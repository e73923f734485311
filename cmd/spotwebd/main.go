// Command spotwebd runs the complete SpotWeb prototype as one process: the
// in-process web cluster behind the transiency-aware load balancer, the
// monitoring subsystem with its REST API, and the control loop (predictors →
// MPO optimizer → portfolio execution) re-planning on a fixed interval.
// Revocations are injected from the catalog's failure probabilities so the
// whole pipeline — warning relay, session migration, replacement capacity —
// exercises continuously.
//
// Usage:
//
//	spotwebd -listen :8080 -monitor :8081 -interval 10s -markets 6
//
// Then:
//
//	curl http://localhost:8080/                 # a user request via the LB
//	curl http://localhost:8081/stats            # live latency/throughput
//	curl http://localhost:8081/metrics          # Prometheus exposition
//	curl http://localhost:8081/events           # revocation event journal
//	curl http://localhost:8081/portfolio        # the executed portfolio
//	curl http://localhost:8081/markets          # market snapshot
//	go tool pprof http://localhost:8081/debug/pprof/profile
//
// SIGINT/SIGTERM triggers a graceful shutdown: both HTTP servers drain,
// the backends terminate, and a final metrics + events snapshot is flushed
// to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spotweb "repro"
	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/federation"
	"repro/internal/lb"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/risk"
	"repro/internal/runcfg"
	"repro/internal/testbed"
)

func main() {
	listen := flag.String("listen", ":8080", "load balancer address")
	monAddr := flag.String("monitor", ":8081", "monitoring REST address")
	interval := flag.Duration("interval", 10*time.Second, "re-planning interval")
	markets := flag.Int("markets", 6, "number of synthetic market types")
	capScale := flag.Float64("cap-scale", 0.2, "scale factor for backend capacities (testbed-sized)")
	warning := flag.Duration("warning", 5*time.Second, "revocation warning period")
	admitRPS := flag.Float64("admit-rps", 0, "token-bucket admission limit on the LB hot path in req/s (0 = off)")
	enableMetrics := flag.Bool("metrics", true, "enable the metrics registry, /metrics, /events and pprof")
	slo := flag.Duration("slo", 500*time.Millisecond, "latency SLO threshold for the attainment tracker")
	chaosScenario := flag.String("chaos-scenario", "", "chaos scenario to replay: a JSON file or a built-in name (empty = none)")
	chaosDur := flag.Duration("chaos-duration", 10*time.Minute, "wall-clock window the chaos scenario timeline is mapped onto")
	// The shared RunConfig set: -seed, -high-util, -warm-start, -anchor-min,
	// -sentinel and the -risk trio. The daemon keeps its own wall-clock
	// -warning duration, so the simulator's -warning seconds override is
	// deliberately absent here.
	rcFlags := runcfg.BindDaemonFlags(flag.CommandLine)
	fedFlags := federation.BindFlags(flag.CommandLine)
	flag.Parse()

	rc := rcFlags.Config()
	seed := rc.RunSeed()

	var reg *metrics.Registry
	var journal *metrics.Journal
	if *enableMetrics {
		reg = metrics.NewRegistry()
		journal = metrics.NewJournal(0)
		reg.SetJournal(journal)
	}

	// With -federation the planning universe is the merged multi-provider
	// view: one catalog per (region, AZ) shard, planned by the hierarchically
	// sharded optimizer; otherwise a single synthetic catalog.
	var cat *spotweb.Catalog
	var fed *federation.Federation
	if fedFlags.Enabled() {
		var err error
		fed, err = fedFlags.Build(seed, 24*30, false)
		if err != nil {
			log.Fatal(err)
		}
		cat = fed.Merged
		log.Printf("federation: %d regions, %d shards, %d markets", len(fed.Regions), len(fed.Shards), cat.Len())
	} else {
		cat = spotweb.SyntheticCatalog(spotweb.CatalogConfig{
			Seed: seed, NumTypes: *markets, Hours: 24 * 30,
			// The anchor floor needs non-revocable markets to anchor to.
			IncludeOnDemand: rc.AnchorMin > 0,
		})
	}
	if rc.Sentinel {
		log.Printf("sentinel: warm-restart standbys are a simulator-path feature; the wall-clock testbed ignores -sentinel")
	}
	if fed != nil && rc.AnchorMin > 0 {
		// The sharded federation planner does not carry the anchor bound.
		log.Printf("anchor: -anchor-min is not supported with -federation; ignoring")
		rc.AnchorMin = 0
	}
	ctrlOpts := spotweb.ControllerOptions{
		Catalog:           cat,
		Optimizer:         rc.Planner(spotweb.OptimizerConfig{Horizon: 4, ChurnKappa: 1.0}, cat),
		Metrics:           reg,
		Federation:        fed,
		FederationPlanner: fedFlags.PlannerConfig(),
	}
	var est *risk.Estimator
	if rc.Risk {
		est = risk.New(risk.Config{
			Quantile: rc.RiskQuantile, HalfLifeHrs: rc.RiskHalfLife, Metrics: reg,
		}, cat)
		ctrlOpts.Risk = est
	}
	ctrl, err := spotweb.NewController(ctrlOpts)
	if err != nil {
		log.Fatal(err)
	}

	// Optional fault injection: the scenario's normalized timeline is mapped
	// onto -chaos-duration of wall-clock time starting at daemon startup.
	var faults *runner.FaultDriver
	var override func() (lb.RevocationAction, bool)
	if *chaosScenario != "" {
		sc, err := chaos.Resolve(*chaosScenario)
		if err != nil {
			log.Fatal(err)
		}
		in, err := chaos.Compile(sc, seed, cat.Len())
		if err != nil {
			log.Fatal(err)
		}
		faults = runner.NewFaultDriver(in, *chaosDur, *warning, 100)
		override = faults.Hook()
	}

	collector := monitor.NewCollector(time.Minute)
	rates := monitor.NewRateSeries(*interval)
	cluster := testbed.NewCluster(testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			BaseServiceTime: 3 * time.Millisecond,
			StartDelay:      2 * time.Second,
			WarmupDur:       2 * time.Second,
			ColdFactor:      0.4,
		},
		Warning: *warning,
		OnRequest: func(lat time.Duration, dropped bool) {
			collector.Record(lat, dropped)
			rates.Mark()
		},
		Metrics:        reg,
		Journal:        journal,
		SLOTarget:      *slo,
		HighUtil:       rc.HighUtil,
		AdmitRPS:       *admitRPS,
		ActionOverride: override,
	})

	caps := make([]float64, cat.Len())
	for i, m := range cat.Markets {
		caps[i] = m.Type.Capacity * *capScale
	}

	// Journal-fed risk estimation: warnings stream into the estimator as
	// they are recorded, and each planning interval closes out one estimator
	// interval with the live exposure snapshot and catalog prices.
	var planTick atomic.Int64
	var feed *risk.Feed
	if est != nil {
		feed = risk.NewFeed(est, risk.FeedConfig{
			Journal:  journal,
			Interval: *interval,
			Snapshot: func() ([]bool, []float64) {
				t := int(planTick.Load())
				if t >= cat.Intervals {
					t = cat.Intervals - 1
				}
				counts := cluster.MarketCounts(cat.Len())
				exposed := make([]bool, cat.Len())
				prices := make([]float64, cat.Len())
				for i, m := range cat.Markets {
					exposed[i] = m.Transient && counts[i] > 0
					prices[i] = m.PriceAt(t)
				}
				return exposed, prices
			},
		})
		if feed == nil {
			log.Printf("risk: estimator on but no journal (-metrics=false); planning from priors only")
		}
		feed.Start()
	}

	var mu sync.Mutex
	currentWeights := map[int]float64{}
	mkMon := monitor.NewMarketMonitor(cat)
	api := &monitor.API{
		Collector: collector,
		Markets:   mkMon,
		Portfolio: func() map[int]float64 {
			mu.Lock()
			defer mu.Unlock()
			out := make(map[int]float64, len(currentWeights))
			for k, v := range currentWeights {
				out[k] = v
			}
			return out
		},
		Metrics:     reg,
		Journal:     journal,
		EnablePProf: *enableMetrics,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if faults != nil {
		log.Printf("chaos: replaying scenario %q over %s", *chaosScenario, *chaosDur)
		go faults.Run(ctx, cluster)
	}

	// Control loop: observe, plan, execute — until shutdown.
	go func() {
		rng := rand.New(rand.NewSource(seed))
		t := 0
		observed := 20.0 // bootstrap rate until real traffic is measured
		tick := time.NewTicker(*interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			if completed := rates.CompletedRates(); len(completed) > 0 {
				observed = completed[len(completed)-1]
				if observed < 1 {
					observed = 1
				}
			}
			dec, err := ctrl.Step(t, observed)
			if err != nil {
				log.Printf("plan t=%d: %v", t, err)
				continue
			}
			started, stopped := cluster.ScaleTo(dec.Counts, caps)
			mu.Lock()
			currentWeights = dec.Weights
			mu.Unlock()
			log.Printf("t=%d observed=%.1f req/s predicted=%.1f capacity=%.1f started=%d stopped=%d",
				t, observed, dec.PredictedRate, dec.Capacity**capScale, started, stopped)

			// Inject revocations per the catalog's failure probabilities.
			counts := cluster.MarketCounts(cat.Len())
			for i, m := range cat.Markets {
				if !m.Transient || counts[i] == 0 {
					continue
				}
				if rng.Float64() < m.FailProbAt(t) {
					victims := victimsInMarket(cluster, i)
					if len(victims) > 0 {
						log.Printf("revocation warning: market %s, backends %v", m.ID(), victims)
						mkMon.RelayWarning(monitor.Warning{
							ServerID: victims[0], Market: i,
							Deadline: time.Now().Add(*warning),
						})
						cluster.Revoke(victims, observed)
					}
				}
			}
			t++
			planTick.Store(int64(t))
		}
	}()

	lbSrv := &http.Server{Addr: *listen, Handler: cluster}
	monSrv := &http.Server{Addr: *monAddr, Handler: api.Handler()}
	go func() {
		log.Printf("monitoring REST on %s (/stats /markets /portfolio /warnings /healthz /metrics /events)", *monAddr)
		if err := monSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	go func() {
		log.Printf("spotwebd load balancer on %s (%d markets, %s re-planning)", *listen, cat.Len(), *interval)
		if err := lbSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	stop() // restore default signal behaviour: a second signal kills hard
	log.Printf("shutdown: draining HTTP servers and backends")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lbSrv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: lb server: %v", err)
	}
	if err := monSrv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: monitor server: %v", err)
	}
	feed.Close()
	cluster.Close()
	flushFinalSnapshot(reg, journal, collector)
	log.Printf("shutdown complete")
}

// flushFinalSnapshot writes a last metrics scrape and journal summary to
// stderr so a terminated run leaves its evidence behind even with no
// scraper attached.
func flushFinalSnapshot(reg *metrics.Registry, journal *metrics.Journal, collector *monitor.Collector) {
	if collector != nil {
		life := collector.Lifetime()
		fmt.Fprintf(os.Stderr, "# final lifetime stats: served=%d dropped=%d p50=%.4fs p99=%.4fs\n",
			life.Served, life.Dropped, life.P50, life.P99)
	}
	if reg != nil {
		fmt.Fprintln(os.Stderr, "# final metrics snapshot")
		reg.WritePrometheus(os.Stderr)
	}
	if journal != nil {
		evs := journal.Events()
		fmt.Fprintf(os.Stderr, "# final event journal (%d retained)\n", len(evs))
		for _, e := range evs {
			fmt.Fprintf(os.Stderr, "# event seq=%d at=%s type=%s backend=%d market=%d %s\n",
				e.Seq, e.At.Format(time.RFC3339Nano), e.Type, e.Backend, e.Market, e.Detail)
		}
	}
}

// victimsInMarket lists the live backend ids bought in a market.
func victimsInMarket(c *testbed.Cluster, mkt int) []int {
	var out []int
	for id, b := range c.Snapshot() {
		if b == mkt {
			out = append(out, id)
		}
	}
	return out
}
