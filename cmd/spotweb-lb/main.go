// Command spotweb-lb runs the in-process HTTP testbed interactively: a
// cluster of simulated web servers behind the transiency-aware load
// balancer, exposed on a local port, with an optional scripted revocation.
// It is the manual-poking counterpart of the Fig. 4(a) experiment.
//
// Usage:
//
//	spotweb-lb -listen :8080 -metrics :8081 -backends 25,25,50,50,40,40 \
//	           -revoke-after 30s -revoke 2,3 -warning 10s
//
// Then drive it with any HTTP load tool and watch the instrumentation:
//
//	curl -H 'X-Session: alice' http://localhost:8080/
//	curl http://localhost:8081/metrics     # Prometheus exposition
//	curl http://localhost:8081/events      # revocation event journal
//
// SIGINT/SIGTERM drains the servers and backends gracefully and flushes a
// final metrics + events snapshot to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/lb"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/risk"
	"repro/internal/runcfg"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// flatCatalog is the declared prior the LB testbed hands the risk
// estimator: n transient markets at a flat 2% per-interval failure
// probability and unit price. There is no real market catalog here, so the
// prior is deliberately uninformative — journal evidence dominates quickly.
func flatCatalog(n int) *market.Catalog {
	const intervals = 24 * 30
	flat := func(v float64) *trace.Series {
		vals := make([]float64, intervals)
		for i := range vals {
			vals[i] = v
		}
		return &trace.Series{StepHrs: 1, Values: vals}
	}
	cat := &market.Catalog{StepHrs: 1, Intervals: intervals}
	for i := 0; i < n; i++ {
		cat.Markets = append(cat.Markets, &market.Market{
			Type:      market.InstanceType{Name: fmt.Sprintf("testbed-%d", i), Capacity: 50},
			Transient: true,
			Group:     i,
			Price:     flat(0.03),
			FailProb:  flat(0.02),
		})
	}
	return cat
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// lbFlags is the parsed command line.
type lbFlags struct {
	listen, metricsAddr, backends, revoke, chaosScenario   string
	service, startDelay, warmup, warning, slo, revokeAfter time.Duration
	chaosDur                                               time.Duration
	vanilla                                                bool
	rate, highUtil, admitRPS                               float64
	chaosMarkets                                           int
	seed                                                   int64
	risk                                                   *risk.Flags
	// positional holds the first non-flag argument and everything after it,
	// which the flag package leaves unparsed.
	positional []string
	// caps and victims are -backends and -revoke, parsed by check.
	caps    []float64
	victims []int
}

func parseFlags(fs *flag.FlagSet, args []string) (*lbFlags, error) {
	f := &lbFlags{}
	fs.StringVar(&f.listen, "listen", ":8080", "address for the load balancer")
	fs.StringVar(&f.metricsAddr, "metrics", ":8081", "address for /metrics, /events, /stats and pprof (empty = disabled)")
	fs.StringVar(&f.backends, "backends", "25,25,50,50,40,40", "comma-separated backend capacities (req/s); backend ids are 0, 1, … in this order")
	fs.DurationVar(&f.service, "service", 4*time.Millisecond, "base service time per request")
	fs.DurationVar(&f.startDelay, "start-delay", 5*time.Second, "simulated VM boot time")
	fs.DurationVar(&f.warmup, "warmup", 5*time.Second, "cache warm-up window")
	fs.DurationVar(&f.warning, "warning", 10*time.Second, "revocation warning period")
	fs.DurationVar(&f.slo, "slo", 500*time.Millisecond, "latency SLO threshold for the attainment tracker")
	fs.BoolVar(&f.vanilla, "vanilla", false, "disable transiency awareness (baseline)")
	fs.DurationVar(&f.revokeAfter, "revoke-after", 0, "inject a revocation after this delay (0 = never)")
	fs.StringVar(&f.revoke, "revoke", "", "comma-separated backend ids to revoke")
	fs.Float64Var(&f.rate, "rate", 100, "assumed offered rate for the revocation decision")
	fs.Float64Var(&f.highUtil, "high-util", 0.85, "utilization threshold of the §6.1 revocation decision")
	fs.Float64Var(&f.admitRPS, "admit-rps", 0, "token-bucket admission limit on the LB hot path in req/s (0 = off)")
	fs.StringVar(&f.chaosScenario, "chaos-scenario", "", "chaos scenario to replay: a JSON file or a built-in name (empty = none)")
	fs.DurationVar(&f.chaosDur, "chaos-duration", time.Minute, "wall-clock window the chaos scenario timeline is mapped onto")
	fs.IntVar(&f.chaosMarkets, "chaos-markets", 3, "synthetic markets the backends are spread over for chaos targeting and the risk prior")
	fs.Int64Var(&f.seed, "seed", 42, "seed for chaos scenario compilation")
	f.risk = risk.BindFlags(fs)
	err := fs.Parse(args)
	f.positional = fs.Args()
	return f, err
}

// check parses -backends and -revoke and rejects what used to fail only once
// the servers were up: a positional argument (every flag after it silently
// kept its default), a capacity that is not a positive finite rate (a
// negative one panicked in the join timer), -chaos-markets below 1 (a
// division by zero), a revoke id outside the launched backends (logged as
// revoked, and nothing happened), a -risk-quantile or -risk-halflife the
// run options reject (a NaN quantile passed the estimator's defaults and
// published NaN for every market) and -risk with -metrics "" (an estimator
// that publishes nowhere).
func (f *lbFlags) check() error {
	if len(f.positional) > 0 {
		return fmt.Errorf("unexpected argument %q: spotweb-lb takes flags only", f.positional[0])
	}
	if err := (runcfg.RunConfig{RiskQuantile: f.risk.Quantile, RiskHalfLife: f.risk.HalfLife}).Validate(); err != nil {
		return err
	}
	if f.risk.Enabled() && f.metricsAddr == "" {
		return errors.New(`-risk with -metrics "": the estimator publishes only on /metrics; give -metrics an address`)
	}
	caps, err := parseFloats(f.backends)
	if err != nil {
		return fmt.Errorf("-backends %q: %v", f.backends, err)
	}
	for _, c := range caps {
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("-backends %q: capacity %v: want a positive, finite req/s", f.backends, c)
		}
	}
	if f.chaosMarkets < 1 {
		return fmt.Errorf("-chaos-markets %d: want at least 1", f.chaosMarkets)
	}
	if f.revoke != "" {
		victims, err := parseInts(f.revoke)
		if err != nil {
			return fmt.Errorf("-revoke %q: %v", f.revoke, err)
		}
		for _, id := range victims {
			if id < 0 || id >= len(caps) {
				return fmt.Errorf("-revoke %d: no such backend; the %d backends have ids 0..%d", id, len(caps), len(caps)-1)
			}
		}
		f.victims = victims
	}
	f.caps = caps
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotweb-lb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f, err := parseFlags(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // fs.Parse has reported it, with the usage
	}
	if err := f.check(); err != nil {
		fmt.Fprintln(stderr, "spotweb-lb:", err)
		fs.Usage()
		return 2
	}

	// Optional fault injection: the scenario's normalized timeline is mapped
	// onto -chaos-duration of wall-clock time starting now. Backends are
	// tagged round-robin into -chaos-markets synthetic markets so storm
	// faults have market-shaped targets.
	var faults *runner.FaultDriver
	var override func() (lb.RevocationAction, bool)
	if f.chaosScenario != "" {
		sc, err := chaos.Resolve(f.chaosScenario)
		var in *chaos.Injector
		if err == nil {
			in, err = chaos.Compile(sc, f.seed, f.chaosMarkets)
		}
		if err != nil {
			fmt.Fprintln(stderr, "spotweb-lb: -chaos-scenario:", err)
			return 2
		}
		faults = runner.NewFaultDriver(in, f.chaosDur, f.warning, f.rate)
		override = faults.Hook()
	}

	logger := log.New(stderr, "", log.LstdFlags)
	lbLn, err := net.Listen("tcp", f.listen)
	if err != nil {
		logger.Print(err)
		return 1
	}
	var monLn net.Listener
	if f.metricsAddr != "" {
		if monLn, err = net.Listen("tcp", f.metricsAddr); err != nil {
			lbLn.Close()
			logger.Print(err)
			return 1
		}
	}

	var reg *metrics.Registry
	var journal *metrics.Journal
	collector := monitor.NewCollector(time.Minute)
	if f.metricsAddr != "" {
		reg = metrics.NewRegistry()
		journal = metrics.NewJournal(0)
		reg.SetJournal(journal)
	}

	// Online risk estimation: the LB testbed has no market catalog, so the
	// estimator starts from a flat declared prior per backend market and
	// learns purely from the warnings the control plane delivers. Its
	// corrected, confidence-widened estimates surface as spotweb_risk_* on
	// /metrics.
	est := f.risk.Estimator(flatCatalog(f.chaosMarkets), reg)
	tbCfg := testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			BaseServiceTime: f.service,
			StartDelay:      f.startDelay,
			WarmupDur:       f.warmup,
		},
		Warning: f.warning,
		Vanilla: f.vanilla,
		OnRequest: func(lat time.Duration, dropped bool) {
			collector.Record(lat, dropped)
		},
		Metrics:        reg,
		Journal:        journal,
		SLOTarget:      f.slo,
		HighUtil:       f.highUtil,
		AdmitRPS:       f.admitRPS,
		ActionOverride: override,
	}
	if est != nil {
		tbCfg.Risk = est
	}
	cl := testbed.NewCluster(tbCfg)
	for i, c := range f.caps {
		var b *testbed.Backend
		if faults != nil {
			b = cl.AddBackendForMarket(i%f.chaosMarkets, c)
		} else {
			b = cl.AddBackend(c)
		}
		logger.Printf("backend %d: capacity %.0f req/s at %s (market %d)", b.ID, c, b.URL(), b.Market)
	}

	if f.revokeAfter > 0 && len(f.victims) > 0 {
		time.AfterFunc(f.revokeAfter, func() {
			logger.Printf("revoking backends %v (warning %s)", f.victims, f.warning)
			cl.Revoke(f.victims, f.rate)
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if faults != nil {
		logger.Printf("chaos: replaying scenario %q over %s", f.chaosScenario, f.chaosDur)
		go faults.Run(ctx, cl)
	}

	serveErr := make(chan error, 2) // one per server
	lbSrv := &http.Server{Handler: cl}
	var monSrv *http.Server
	if monLn != nil {
		api := &monitor.API{
			Collector:   collector,
			Metrics:     reg,
			Journal:     journal,
			EnablePProf: true,
		}
		monSrv = &http.Server{Handler: api.Handler()}
		logger.Printf("instrumentation on %s (/stats /healthz /metrics /events /debug/pprof)", monLn.Addr())
		go func() { serveErr <- monSrv.Serve(monLn) }()
	}
	logger.Printf("spotweb-lb listening on %s (vanilla=%v, %d backends)", lbLn.Addr(), f.vanilla, len(f.caps))
	go func() { serveErr <- lbSrv.Serve(lbLn) }()

	// The estimator's clock: one interval a second, exposed where backends
	// are live.
	var tick <-chan time.Time
	if est != nil {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		tick = ticker.C
	}
	code := 0
wait:
	for t := 0; ; t++ {
		select {
		case <-ctx.Done():
			break wait
		case err := <-serveErr:
			logger.Print(err)
			code = 1
			break wait
		case <-tick:
			counts := cl.MarketCounts(f.chaosMarkets)
			exposed := make([]bool, len(counts))
			for i, c := range counts {
				exposed[i] = c > 0
			}
			est.ObserveInterval(t, exposed, nil)
		}
	}
	stop() // a second signal kills hard
	logger.Printf("shutdown: draining HTTP servers and backends")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lbSrv.Shutdown(shCtx); err != nil {
		logger.Printf("shutdown: lb server: %v", err)
	}
	if monSrv != nil {
		if err := monSrv.Shutdown(shCtx); err != nil {
			logger.Printf("shutdown: metrics server: %v", err)
		}
	}
	cl.Close()
	if reg != nil {
		fmt.Fprintln(stderr, "# final metrics snapshot")
		reg.WritePrometheus(stderr)
	}
	if journal != nil {
		evs := journal.Events()
		fmt.Fprintf(stderr, "# final event journal (%d retained)\n", len(evs))
		for _, e := range evs {
			fmt.Fprintf(stderr, "# event seq=%d at=%s type=%s backend=%d market=%d %s\n",
				e.Seq, e.At.Format(time.RFC3339Nano), e.Type, e.Backend, e.Market, e.Detail)
		}
	}
	logger.Printf("shutdown complete")
	return code
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
