package risk

import (
	"time"

	"repro/internal/metrics"
)

// FeedConfig wires an Estimator to a live journal. The feed consumes
// revocation-warning events from a bounded journal subscription (no
// polling; drop-oldest on overflow so it can never stall the recorder) and
// advances the estimator's decay clock on a wall-clock ticker.
type FeedConfig struct {
	// Journal is the event source (required).
	Journal *metrics.Journal
	// Buffer is the subscription channel depth (default 1024).
	Buffer int
	// Snapshot samples current per-market exposure (live servers present)
	// and prices; called once per tick. May be nil (events only).
	Snapshot func() (exposed []bool, prices []float64)
	// Interval is the tick cadence — one estimator interval per tick
	// (default 10s, matching the daemons' plan interval).
	Interval time.Duration
}

// Feed pumps journal events into an Estimator from a background goroutine.
// Construct with NewFeed, then Start; Close detaches and waits for exit.
type Feed struct {
	est  *Estimator
	cfg  FeedConfig
	sub  *metrics.Subscription
	stop chan struct{}
	done chan struct{}
	tick int
}

// NewFeed subscribes est to the journal and consumes the subscription's
// lifetime baseline (events evicted from the ring before attach still count
// toward estimator lifetime totals). Returns nil if est or the journal is
// nil — a nil *Feed no-ops on every method.
func NewFeed(est *Estimator, cfg FeedConfig) *Feed {
	if est == nil || cfg.Journal == nil {
		return nil
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	sub := cfg.Journal.Subscribe(cfg.Buffer)
	est.SeedLifetime(sub.Baseline()[metrics.EvWarning])
	return &Feed{
		est:  est,
		cfg:  cfg,
		sub:  sub,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the pump goroutine.
func (f *Feed) Start() {
	if f == nil {
		return
	}
	go f.run()
}

func (f *Feed) run() {
	defer close(f.done)
	ticker := time.NewTicker(f.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-f.sub.C:
			if !ok {
				return
			}
			if ev.Type == metrics.EvWarning && ev.Market >= 0 {
				f.est.ObserveRevocation(ev.Market, false)
			}
		case <-ticker.C:
			var exposed []bool
			var prices []float64
			if f.cfg.Snapshot != nil {
				exposed, prices = f.cfg.Snapshot()
			}
			f.est.ObserveInterval(f.tick, exposed, prices)
			f.tick++
		case <-f.stop:
			return
		}
	}
}

// Close detaches from the journal and waits for the pump to exit.
func (f *Feed) Close() {
	if f == nil {
		return
	}
	close(f.stop)
	f.cfg.Journal.Unsubscribe(f.sub)
	<-f.done
}
