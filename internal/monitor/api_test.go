package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/metrics"
)

// newInstrumentedAPI builds an API with every optional component populated:
// a collector with one sample, a market monitor with one relayed warning, a
// metrics registry with request counters / a latency histogram / an SLO
// tracker, and a journal holding one full injected revocation lifecycle.
func newInstrumentedAPI(t *testing.T) *API {
	t.Helper()
	cat := market.TestbedCatalog(1, 24)
	clk := newFakeClock()
	col := NewCollector(time.Minute)
	col.SetClock(clk.now)
	col.Record(10*time.Millisecond, false)

	mm := NewMarketMonitor(cat)
	mm.RelayWarning(Warning{ServerID: 1, Market: 0})

	reg := metrics.NewRegistry()
	journal := metrics.NewJournal(0)
	reg.SetJournal(journal)
	reg.Counter("spotweb_lb_requests_total", "Requests routed.").Add(42)
	h := reg.Histogram("spotweb_lb_request_seconds", "End-to-end latency.")
	h.Observe(0.010)
	h.Observe(0.150)
	slo := metrics.NewSLOTracker(500*time.Millisecond, time.Minute, 0)
	slo.Observe(10 * time.Millisecond)
	reg.SLO("spotweb_slo", "Latency SLO attainment.", slo)

	// One full revocation lifecycle, in order.
	journal.Record(metrics.EvWarning, 1, 0, "deadline=5s")
	journal.Record(metrics.EvDrainStart, 1, 0, "action=migrate")
	journal.Record(metrics.EvSessionsMigrated, 1, 0, "n=3")
	journal.Record(metrics.EvDrainComplete, 1, 0, "")
	journal.Record(metrics.EvReplacementStarted, 2, 0, "")
	journal.Record(metrics.EvReplacementUp, 2, 0, "")
	journal.Record(metrics.EvBackendTerminated, 1, 0, "revoked")

	return &API{
		Collector: col,
		Markets:   mm,
		Portfolio: func() map[int]float64 { return map[int]float64{0: 0.7, 2: 0.3} },
		Metrics:   reg,
		Journal:   journal,
	}
}

func TestAPIEndpointsTable(t *testing.T) {
	srv := httptest.NewServer(newInstrumentedAPI(t).Handler())
	defer srv.Close()

	cases := []struct {
		path       string
		wantStatus int
		wantType   string // Content-Type prefix
		checkBody  func(t *testing.T, body []byte)
	}{
		{
			path: "/healthz", wantStatus: http.StatusOK, wantType: "",
			checkBody: func(t *testing.T, body []byte) {
				if strings.TrimSpace(string(body)) != "ok" {
					t.Fatalf("healthz body = %q", body)
				}
			},
		},
		{
			path: "/stats", wantStatus: http.StatusOK, wantType: "application/json",
			checkBody: func(t *testing.T, body []byte) {
				var st Stats
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatalf("stats json: %v", err)
				}
				if st.Samples != 1 {
					t.Fatalf("stats samples = %d", st.Samples)
				}
			},
		},
		{
			path: "/markets", wantStatus: http.StatusOK, wantType: "application/json",
			checkBody: func(t *testing.T, body []byte) {
				var snaps []MarketSnapshot
				if err := json.Unmarshal(body, &snaps); err != nil || len(snaps) == 0 {
					t.Fatalf("markets json: %v (%d snaps)", err, len(snaps))
				}
			},
		},
		{
			path: "/warnings", wantStatus: http.StatusOK, wantType: "application/json",
			checkBody: func(t *testing.T, body []byte) {
				var warns []Warning
				if err := json.Unmarshal(body, &warns); err != nil || len(warns) != 1 {
					t.Fatalf("warnings json: %v %v", warns, err)
				}
			},
		},
		{
			path: "/portfolio", wantStatus: http.StatusOK, wantType: "application/json",
			checkBody: func(t *testing.T, body []byte) {
				var pf map[string]float64
				if err := json.Unmarshal(body, &pf); err != nil || pf["0"] != 0.7 {
					t.Fatalf("portfolio json: %v %v", pf, err)
				}
			},
		},
		{
			path: "/metrics", wantStatus: http.StatusOK, wantType: "text/plain",
			checkBody: func(t *testing.T, body []byte) {
				checkPrometheusBody(t, string(body))
			},
		},
		{
			path: "/events", wantStatus: http.StatusOK, wantType: "application/json",
			checkBody: func(t *testing.T, body []byte) {
				var evs []metrics.Event
				if err := json.Unmarshal(body, &evs); err != nil {
					t.Fatalf("events json: %v", err)
				}
				wantOrder := []string{
					metrics.EvWarning, metrics.EvDrainStart,
					metrics.EvSessionsMigrated, metrics.EvDrainComplete,
					metrics.EvReplacementStarted, metrics.EvReplacementUp,
					metrics.EvBackendTerminated,
				}
				if len(evs) != len(wantOrder) {
					t.Fatalf("events len = %d, want %d", len(evs), len(wantOrder))
				}
				for i, ev := range evs {
					if ev.Type != wantOrder[i] {
						t.Fatalf("event[%d] = %s, want %s", i, ev.Type, wantOrder[i])
					}
					if i > 0 && ev.Seq <= evs[i-1].Seq {
						t.Fatalf("event seq not increasing: %d after %d", ev.Seq, evs[i-1].Seq)
					}
				}
			},
		},
		{
			path: "/events?type=sessions_migrated", wantStatus: http.StatusOK, wantType: "application/json",
			checkBody: func(t *testing.T, body []byte) {
				var evs []metrics.Event
				if err := json.Unmarshal(body, &evs); err != nil || len(evs) != 1 ||
					evs[0].Type != metrics.EvSessionsMigrated {
					t.Fatalf("filtered events = %v (%v)", evs, err)
				}
			},
		},
		{
			path: "/markets?t=abc", wantStatus: http.StatusBadRequest, wantType: "",
			checkBody: nil,
		},
	}

	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantType != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), tc.wantType) {
				t.Fatalf("content-type = %q, want prefix %q", resp.Header.Get("Content-Type"), tc.wantType)
			}
			if tc.checkBody != nil {
				tc.checkBody(t, body)
			}
		})
	}
}

// checkPrometheusBody asserts the exposition parses line-by-line: every
// non-comment line is `name{labels} value` or `name value`, HELP/TYPE come
// in pairs, and the seeded series are present.
func checkPrometheusBody(t *testing.T, body string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition")
	}
	var samples int
	for _, ln := range lines {
		if ln == "" {
			t.Fatal("blank line in exposition")
		}
		if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(ln, "#") {
			t.Fatalf("unexpected comment line: %q", ln)
		}
		// name{labels} value | name value — value is the last space-field.
		idx := strings.LastIndex(ln, " ")
		if idx <= 0 {
			t.Fatalf("unparseable sample line: %q", ln)
		}
		name := ln[:idx]
		if strings.ContainsAny(name, "\t") || name == "" {
			t.Fatalf("bad series name in %q", ln)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no sample lines in exposition")
	}
	for _, want := range []string{
		"spotweb_lb_requests_total 42",
		"spotweb_lb_request_seconds_count 2",
		"spotweb_lb_request_seconds_bucket{le=\"+Inf\"} 2",
		"spotweb_slo_attainment_ratio 1",
		"spotweb_slo_target_seconds 0.5",
		"spotweb_events_total{type=\"revocation_warning\"} 1",
		"spotweb_events_total{type=\"sessions_migrated\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q\n%s", want, body)
		}
	}
}

// TestAPIMetricsDisabled: a nil registry/journal yields 404s, not panics.
func TestAPIMetricsDisabled(t *testing.T) {
	srv := httptest.NewServer((&API{}).Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAPIPProf: EnablePProf registers the pprof index.
func TestAPIPProf(t *testing.T) {
	api := &API{EnablePProf: true}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
}
