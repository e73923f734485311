package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// hostInfo is recorded with every result so a number can be traced to the
// machine it was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// universeSeed pins the market universe: catalogs, the federation and the
// sweep's pool of batch seeds are the same in every run, because problem
// difficulty varies far more between catalogs (plan_single's median round is
// 43–68 ms across six catalog seeds) than any regression bound allows. The
// -seed argument drives the load on that universe: workload traces, the risk
// feed, session ids and mix, fault times, and where in the pool a sweep
// starts.
const universeSeed = 2019

// senders is the width of every in-process load generator and worker pool
// the harness configures: the core count and nothing wider.
func senders() int { return runtime.NumCPU() }

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssSampler records the process's resident set size every 50 ms while a
// workload is measured.
type rssSampler struct {
	stop, done chan struct{}
	mb         timing
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if b, err := os.ReadFile("/proc/self/statm"); err == nil {
					if f := strings.Fields(string(b)); len(f) > 1 {
						if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
							s.mb = append(s.mb, pages*float64(os.Getpagesize())/(1<<20))
						}
					}
				}
			}
		}
	}()
	return s
}

// record stops the sampler and sets rss_p90_mb: the 90th percentile of the
// samples. The true peak (ru_maxrss) is a transient of garbage-collector
// timing and moves ±20 % between identical runs; the sampled p90 is the
// footprint the run sustained and repeats within ±2 %.
func (s *rssSampler) record(rep *report) {
	close(s.stop)
	<-s.done
	rep.setN("rss_p90_mb", s.mb.pct(90), len(s.mb))
	rep.notef("peak RSS (ru_maxrss, set-up included) %.1f MB", peakRSSMB())
}

// totalAllocBytes returns the cumulative bytes allocated on the Go heap.
func totalAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape renders the registry in Prometheus text format and parses it back:
// the harness reads a layer's counters and histograms the way an operator
// would, from the public exposition, not from package internals.
func scrape(r *metrics.Registry) []promSample {
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	var out []promSample
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{value: v, labels: map[string]string{}}
		head := line[:sp]
		if i := strings.IndexByte(head, '{'); i >= 0 {
			s.name = head[:i]
			for _, kv := range strings.Split(strings.TrimSuffix(head[i+1:], "}"), ",") {
				if eq := strings.IndexByte(kv, '='); eq > 0 {
					s.labels[kv[:eq]] = strings.Trim(kv[eq+1:], `"`)
				}
			}
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out
}

// promSum adds up every sample of a family whose labels include want.
func promSum(samples []promSample, name string, want map[string]string) float64 {
	var sum float64
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			sum += s.value
		}
	}
	return sum
}

// promHistQuantile merges every series of a histogram family (all label
// sets) and returns the q-quantile in seconds as the upper bound of the
// bucket holding that rank, the same resolution the registry itself offers.
func promHistQuantile(samples []promSample, name string, q float64) (seconds float64, count int64) {
	// Per series the buckets are cumulative; de-cumulate per series, then
	// merge by upper bound.
	perSeries := map[string]map[float64]float64{}
	for _, s := range samples {
		if s.name != name+"_bucket" || s.labels["le"] == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		id := seriesID(s.labels)
		if perSeries[id] == nil {
			perSeries[id] = map[float64]float64{}
		}
		perSeries[id][le] = s.value
	}
	merged := map[float64]float64{}
	for _, cum := range perSeries {
		les := make([]float64, 0, len(cum))
		for le := range cum {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			merged[le] += cum[le] - prev
			prev = cum[le]
		}
	}
	les := make([]float64, 0, len(merged))
	var total float64
	for le, c := range merged {
		les = append(les, le)
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	sort.Float64s(les)
	rank := q*(total-1) + 1
	var cum float64
	for _, le := range les {
		cum += merged[le]
		if cum >= rank {
			return le, int64(total)
		}
	}
	return les[len(les)-1], int64(total)
}

// seriesID identifies a histogram series by its labels other than le.
func seriesID(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + labels[k] + ",")
	}
	return b.String()
}
