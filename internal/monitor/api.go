package monitor

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/market"
	"repro/internal/metrics"
)

// MarketSnapshot is one market's state at an interval — what the paper's
// system-monitoring component feeds the price and failure predictors.
type MarketSnapshot struct {
	ID            string  `json:"id"`
	Transient     bool    `json:"transient"`
	Price         float64 `json:"price_per_hour"`
	PerReqCost    float64 `json:"per_request_cost"`
	FailProb      float64 `json:"fail_prob"`
	CapacityReqPS float64 `json:"capacity_req_per_sec"`
}

// Warning is a revocation warning relayed from the cloud to the balancer.
type Warning struct {
	ServerID int       `json:"server_id"`
	Market   int       `json:"market"`
	Deadline time.Time `json:"deadline"`
}

// MarketMonitor tracks market state and keeps the log of relayed
// revocation warnings that /warnings serves.
type MarketMonitor struct {
	Cat *market.Catalog

	mu  sync.Mutex
	log []Warning
}

// NewMarketMonitor wraps a catalog.
func NewMarketMonitor(cat *market.Catalog) *MarketMonitor {
	return &MarketMonitor{Cat: cat}
}

// Snapshot returns all markets' state at interval t (including the
// per-request price conversion the paper's monitor performs).
func (m *MarketMonitor) Snapshot(t int) []MarketSnapshot {
	out := make([]MarketSnapshot, 0, m.Cat.Len())
	for _, mk := range m.Cat.Markets {
		out = append(out, MarketSnapshot{
			ID:            mk.ID(),
			Transient:     mk.Transient,
			Price:         mk.PriceAt(t),
			PerReqCost:    mk.PerRequestCostAt(t),
			FailProb:      mk.FailProbAt(t),
			CapacityReqPS: mk.Type.Capacity,
		})
	}
	return out
}

// RelayWarning records a revocation warning in the warning log.
func (m *MarketMonitor) RelayWarning(w Warning) {
	m.mu.Lock()
	m.log = append(m.log, w)
	m.mu.Unlock()
}

// Warnings returns a copy of the warning log.
func (m *MarketMonitor) Warnings() []Warning {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Warning(nil), m.log...)
}

// API is the REST surface of the monitoring subsystem: the paper wraps
// HAProxy's halog statistics and the market feeds behind REST endpoints
// polled by the predictors; this is the equivalent.
//
//	GET /stats            → Stats (sliding-window application metrics)
//	GET /markets?t=<int>  → []MarketSnapshot at interval t (default 0)
//	GET /warnings         → []Warning
//	GET /portfolio        → map market-index → weight (if a source is set)
//	GET /healthz          → 200 ok
//	GET /metrics          → Prometheus text exposition (if a registry is set)
//	GET /events           → event journal as JSON, oldest first (if set);
//	                        ?type= filters, ?n= limits to the newest n
//	GET /debug/pprof/*    → net/http/pprof (if EnablePProf)
type API struct {
	Collector *Collector
	Markets   *MarketMonitor
	// Portfolio optionally reports the currently executed portfolio.
	Portfolio func() map[int]float64
	// Metrics optionally serves the Prometheus registry at /metrics.
	Metrics *metrics.Registry
	// Journal optionally serves the structured event journal at /events.
	Journal *metrics.Journal
	// EnablePProf registers the net/http/pprof handlers under
	// /debug/pprof/.
	EnablePProf bool
}

// Handler returns the REST handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		if a.Collector == nil {
			http.Error(w, "no collector", http.StatusNotFound)
			return
		}
		writeJSON(w, a.Collector.Snapshot())
	})
	mux.HandleFunc("/markets", func(w http.ResponseWriter, r *http.Request) {
		if a.Markets == nil {
			http.Error(w, "no market monitor", http.StatusNotFound)
			return
		}
		t := 0
		if q := r.URL.Query().Get("t"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad t", http.StatusBadRequest)
				return
			}
			t = v
		}
		writeJSON(w, a.Markets.Snapshot(t))
	})
	mux.HandleFunc("/warnings", func(w http.ResponseWriter, _ *http.Request) {
		if a.Markets == nil {
			http.Error(w, "no market monitor", http.StatusNotFound)
			return
		}
		writeJSON(w, a.Markets.Warnings())
	})
	mux.HandleFunc("/portfolio", func(w http.ResponseWriter, _ *http.Request) {
		if a.Portfolio == nil {
			http.Error(w, "no portfolio source", http.StatusNotFound)
			return
		}
		// JSON object keys must be strings.
		out := map[string]float64{}
		for k, v := range a.Portfolio() {
			out[strconv.Itoa(k)] = v
		}
		writeJSON(w, out)
	})
	mux.Handle("/metrics", metrics.Handler(a.Metrics))
	mux.Handle("/events", metrics.JournalHandler(a.Journal))
	if a.EnablePProf {
		metrics.RegisterPProf(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
