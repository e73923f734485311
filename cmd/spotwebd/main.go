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
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sync"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// daemonFlags is the parsed command line.
type daemonFlags struct {
	listen, monAddr, chaosScenario   string
	interval, warning, slo, chaosDur time.Duration
	markets                          int
	capScale, admitRPS               float64
	enableMetrics                    bool
	rc                               *runcfg.Flags
	fed                              *federation.Flags
	positional                       []string // the first non-flag argument and everything after it
}

func parseFlags(fs *flag.FlagSet, args []string) (*daemonFlags, error) {
	f := &daemonFlags{}
	fs.StringVar(&f.listen, "listen", ":8080", "load balancer address")
	fs.StringVar(&f.monAddr, "monitor", ":8081", "monitoring REST address")
	fs.DurationVar(&f.interval, "interval", 10*time.Second, "re-planning interval")
	fs.IntVar(&f.markets, "markets", 6, "number of synthetic market types")
	fs.Float64Var(&f.capScale, "cap-scale", 0.2, "scale factor for backend capacities (testbed-sized)")
	fs.DurationVar(&f.warning, "warning", 5*time.Second, "revocation warning period")
	fs.Float64Var(&f.admitRPS, "admit-rps", 0, "token-bucket admission limit on the LB hot path in req/s (0 = off)")
	fs.BoolVar(&f.enableMetrics, "metrics", true, "enable the metrics registry, /metrics, /events and pprof")
	fs.DurationVar(&f.slo, "slo", 500*time.Millisecond, "latency SLO threshold for the attainment tracker")
	fs.StringVar(&f.chaosScenario, "chaos-scenario", "", "chaos scenario to replay: a JSON file or a built-in name (empty = none)")
	fs.DurationVar(&f.chaosDur, "chaos-duration", 10*time.Minute, "wall-clock window the chaos scenario timeline is mapped onto")
	// The shared RunConfig set: -seed, -high-util, -warm-start, -anchor-min
	// and the -risk trio. The daemon keeps its own wall-clock -warning
	// duration, so the simulator's -warning seconds override is deliberately
	// absent here, as is the simulator-only -sentinel.
	f.rc = runcfg.BindDaemonFlags(fs)
	f.fed = federation.BindFlags(fs)
	err := fs.Parse(args)
	f.positional = fs.Args()
	return f, err
}

// check rejects what used to fail only once the servers were up, or not at
// all: a non-positive -interval panicked in the control loop's ticker,
// -markets 0 silently planned the catalog generator's default size, a
// positional argument silently ended flag parsing, and a non-positive -slo or
// -cap-scale, a negative -admit-rps or -warning ran a daemon that could not
// mean what it was asked — as did the run options runcfg.RunConfig.Validate
// rejects and the federation flags federation.Flags.Validate rejects.
func (f *daemonFlags) check() error {
	switch {
	case len(f.positional) > 0:
		return fmt.Errorf("unexpected argument %q: spotwebd takes flags only", f.positional[0])
	case f.interval <= 0:
		return fmt.Errorf("-interval %s: want a positive re-planning interval", f.interval)
	case f.slo <= 0:
		return fmt.Errorf("-slo %s: want a positive latency threshold", f.slo)
	case !(f.capScale > 0) || math.IsInf(f.capScale, 1):
		return fmt.Errorf("-cap-scale %v: want a positive, finite factor", f.capScale)
	case f.markets < 1 && !f.fed.Enabled():
		return fmt.Errorf("-markets %d: want at least 1", f.markets)
	case !(f.admitRPS >= 0):
		return fmt.Errorf("-admit-rps %v: want 0 (off) or a positive req/s", f.admitRPS)
	case f.warning < 0:
		return fmt.Errorf("-warning %s: want a non-negative warning period", f.warning)
	}
	if err := f.fed.Validate(); err != nil {
		return err
	}
	return f.rc.Config().Validate()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotwebd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f, err := parseFlags(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // fs.Parse has reported it, with the usage
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, "spotwebd:", err)
		fs.Usage()
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)

	rc := f.rc.Config()
	seed := rc.RunSeed()

	var reg *metrics.Registry
	var journal *metrics.Journal
	if f.enableMetrics {
		reg = metrics.NewRegistry()
		journal = metrics.NewJournal(0)
		reg.SetJournal(journal)
	}

	// With -federation the planning universe is the merged multi-provider
	// view: one catalog per (region, AZ) shard, planned by the hierarchically
	// sharded optimizer; otherwise a single synthetic catalog.
	var cat *spotweb.Catalog
	var fed *federation.Federation
	if f.fed.Enabled() {
		fed, err = f.fed.Build(seed, 24*30, false)
		if err != nil {
			fmt.Fprintln(stderr, "spotwebd: -federation:", err)
			return 2
		}
		cat = fed.Merged
		logger.Printf("federation: %d regions, %d shards, %d markets", len(fed.Regions), len(fed.Shards), cat.Len())
	} else {
		cat = spotweb.SyntheticCatalog(spotweb.CatalogConfig{
			Seed: seed, NumTypes: f.markets, Hours: 24 * 30,
			// The anchor floor needs non-revocable markets to anchor to.
			IncludeOnDemand: rc.AnchorMin > 0,
		})
	}
	if fed != nil && rc.AnchorMin > 0 {
		// The sharded federation planner does not carry the anchor bound.
		logger.Printf("anchor: -anchor-min is not supported with -federation; ignoring")
		rc.AnchorMin = 0
	}
	ctrlOpts := spotweb.ControllerOptions{
		Catalog:           cat,
		Optimizer:         rc.Planner(spotweb.OptimizerConfig{Horizon: 4, ChurnKappa: 1.0}, cat),
		Metrics:           reg,
		Federation:        fed,
		FederationPlanner: f.fed.PlannerConfig(),
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
		fmt.Fprintln(stderr, "spotwebd:", err)
		return 2
	}

	// Optional fault injection: the scenario's normalized timeline is mapped
	// onto -chaos-duration of wall-clock time starting at daemon startup.
	var faults *runner.FaultDriver
	var override func() (lb.RevocationAction, bool)
	if f.chaosScenario != "" {
		sc, err := chaos.Resolve(f.chaosScenario)
		var in *chaos.Injector
		if err == nil {
			in, err = chaos.Compile(sc, seed, cat.Len())
		}
		if err != nil {
			fmt.Fprintln(stderr, "spotwebd: -chaos-scenario:", err)
			return 2
		}
		faults = runner.NewFaultDriver(in, f.chaosDur, f.warning, 100)
		override = faults.Hook()
	}

	lbLn, err := net.Listen("tcp", f.listen)
	if err != nil {
		logger.Print(err)
		return 1
	}
	monLn, err := net.Listen("tcp", f.monAddr)
	if err != nil {
		lbLn.Close()
		logger.Print(err)
		return 1
	}

	collector := monitor.NewCollector(time.Minute)
	rates := monitor.NewRateSeries(f.interval)
	tbCfg := testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			BaseServiceTime: 3 * time.Millisecond,
			StartDelay:      2 * time.Second,
			WarmupDur:       2 * time.Second,
		},
		Warning: f.warning,
		OnRequest: func(lat time.Duration, dropped bool) {
			collector.Record(lat, dropped)
			rates.Mark()
		},
		Metrics:        reg,
		Journal:        journal,
		SLOTarget:      f.slo,
		HighUtil:       rc.HighUtil,
		AdmitRPS:       f.admitRPS,
		ActionOverride: override,
	}
	if est != nil {
		// The control plane tells the estimator of every warning it
		// delivers; the control loop below closes its intervals.
		tbCfg.Risk = est
	}
	cluster := testbed.NewCluster(tbCfg)

	caps := make([]float64, cat.Len())
	for i, m := range cat.Markets {
		caps[i] = m.Type.Capacity * f.capScale
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
		EnablePProf: f.enableMetrics,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if faults != nil {
		logger.Printf("chaos: replaying scenario %q over %s", f.chaosScenario, f.chaosDur)
		go faults.Run(ctx, cluster)
	}

	// Control loop: observe, plan, execute — until shutdown.
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		rng := rand.New(rand.NewSource(seed))
		t := 0
		observed := 20.0 // bootstrap rate until real traffic is measured
		tick := time.NewTicker(f.interval)
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
				logger.Printf("plan t=%d: %v", t, err)
				continue
			}
			started, stopped := cluster.ScaleTo(dec.Counts, caps)
			mu.Lock()
			currentWeights = dec.Weights
			mu.Unlock()
			logger.Printf("t=%d observed=%.1f req/s predicted=%.1f capacity=%.1f started=%d stopped=%d",
				t, observed, dec.PredictedRate, dec.Capacity*f.capScale, started, stopped)

			// Inject revocations per the catalog's failure probabilities.
			counts := cluster.MarketCounts(cat.Len())
			for i, m := range cat.Markets {
				if !m.Transient || counts[i] == 0 {
					continue
				}
				if rng.Float64() < m.FailProbAt(t) {
					if victims := revokeMarket(cluster, mkMon, i, f.warning, observed); len(victims) > 0 {
						logger.Printf("revocation warning: market %s, backends %v", m.ID(), victims)
					}
				}
			}
			// Close the estimator's interval t after its revocations and
			// before the next round plans, as the fluid simulator does.
			if est != nil {
				exposed := make([]bool, cat.Len())
				prices := make([]float64, cat.Len())
				for i, m := range cat.Markets {
					exposed[i] = m.Transient && counts[i] > 0
					prices[i] = m.PriceAt(t)
				}
				est.ObserveInterval(t, exposed, prices)
			}
			t++
		}
	}()

	serveErr := make(chan error, 2) // one per server
	lbSrv := &http.Server{Handler: cluster}
	monSrv := &http.Server{Handler: api.Handler()}
	logger.Printf("monitoring REST on %s (/stats /markets /portfolio /warnings /healthz /metrics /events)", monLn.Addr())
	go func() { serveErr <- monSrv.Serve(monLn) }()
	logger.Printf("spotwebd load balancer on %s (%d markets, %s re-planning)", lbLn.Addr(), cat.Len(), f.interval)
	go func() { serveErr <- lbSrv.Serve(lbLn) }()

	code := 0
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		logger.Print(err)
		code = 1
	}
	stop() // restore default signal behaviour: a second signal kills hard
	logger.Printf("shutdown: draining HTTP servers and backends")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lbSrv.Shutdown(shCtx); err != nil {
		logger.Printf("shutdown: lb server: %v", err)
	}
	if err := monSrv.Shutdown(shCtx); err != nil {
		logger.Printf("shutdown: monitor server: %v", err)
	}
	<-loopDone
	cluster.Close()
	flushFinalSnapshot(stderr, reg, journal, collector)
	logger.Printf("shutdown complete")
	return code
}

// flushFinalSnapshot writes a last metrics scrape and journal summary to w
// (stderr) so a terminated run leaves its evidence behind even with no
// scraper attached.
func flushFinalSnapshot(w io.Writer, reg *metrics.Registry, journal *metrics.Journal, collector *monitor.Collector) {
	if collector != nil {
		life := collector.Lifetime()
		fmt.Fprintf(w, "# final lifetime stats: served=%d dropped=%d p50=%.4fs p99=%.4fs\n",
			life.Served, life.Dropped, life.P50, life.P99)
	}
	if reg != nil {
		fmt.Fprintln(w, "# final metrics snapshot")
		reg.WritePrometheus(w)
	}
	if journal != nil {
		evs := journal.Events()
		fmt.Fprintf(w, "# final event journal (%d retained)\n", len(evs))
		for _, e := range evs {
			fmt.Fprintf(w, "# event seq=%d at=%s type=%s backend=%d market=%d %s\n",
				e.Seq, e.At.Format(time.RFC3339Nano), e.Type, e.Backend, e.Market, e.Detail)
		}
	}
}

// revokeMarket revokes every live backend bought in market mkt, relaying one
// /warnings entry per victim as the journal records one revocation warning
// per victim, and returns the victims.
func revokeMarket(c *testbed.Cluster, mon *monitor.MarketMonitor, mkt int, warning time.Duration, offered float64) []int {
	var victims []int
	for id, b := range c.Snapshot() {
		if b == mkt {
			victims = append(victims, id)
		}
	}
	slices.Sort(victims)
	deadline := time.Now().Add(warning)
	for _, id := range victims {
		mon.RelayWarning(monitor.Warning{ServerID: id, Market: mkt, Deadline: deadline})
	}
	if len(victims) > 0 {
		c.Revoke(victims, offered)
	}
	return victims
}
