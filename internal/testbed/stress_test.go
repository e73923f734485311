package testbed

// Concurrency stress for the full front-end path: live HTTP traffic through
// the cluster's ServeHTTP (in-process LB hop, real sockets to backends)
// racing revocations and scale churn. This is the testbed half of the CI
// race job's -run 'TestStress|TestConcurrent' suite.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestConcurrentServeRevokeScale drives sticky and anonymous requests from
// several goroutines while the control plane revokes backends, launches
// replacements, and scales down — the whole lifecycle racing the data plane.
// Asserts the cluster keeps serving (some successes during and after the
// churn), no request panics, and the striped route metrics stay coherent.
func TestConcurrentServeRevokeScale(t *testing.T) {
	reg := metrics.NewRegistry()
	j := metrics.NewJournal(1024)
	cl := NewCluster(ClusterConfig{
		Backend: BackendConfig{
			BaseServiceTime: 200 * time.Microsecond,
		},
		Warning: 100 * time.Millisecond,
		Metrics: reg,
		Journal: j,
	})
	defer cl.Close()
	for i := 0; i < 6; i++ {
		cl.AddBackend(500) // StartDelay 0 → immediately in rotation
	}

	var served, failed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodGet, "/", nil)
				if i%2 == 0 {
					req.Header.Set("X-Session", fmt.Sprintf("g%d-s%d", g, i%32))
				}
				w := &sink{}
				cl.ServeHTTP(w, req)
				if w.status() == http.StatusOK {
					served.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(g)
	}

	// Control-plane churn: two revocation waves plus a scale-down, spread
	// over the traffic window.
	time.Sleep(50 * time.Millisecond)
	cl.Revoke([]int{0, 1}, 100)
	time.Sleep(50 * time.Millisecond)
	cl.Revoke([]int{2}, 2000) // high offered rate → reprovision path (replacement starts)
	time.Sleep(150 * time.Millisecond)

	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no request succeeded during the churn")
	}
	// After the warning periods elapse the revoked backends must be fully
	// drained: terminated, their drains completed, and no session or
	// anonymous request routed to them any more.
	deadline := time.Now().Add(2 * time.Second)
	for _, id := range []int{0, 1, 2} {
		for cl.backend(id) != nil && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if cl.backend(id) != nil {
			t.Fatalf("revoked backend %d still live after drain deadline", id)
		}
	}
	completed := map[int]bool{}
	for _, ev := range j.Events() {
		if ev.Type == metrics.EvDrainComplete {
			completed[ev.Backend] = true
		}
	}
	for g := 0; g < 4; g++ {
		for s := 0; s <= 32; s++ {
			session := fmt.Sprintf("g%d-s%d", g, s)
			if s == 32 {
				session = ""
			}
			if id, ok := cl.balancer.Route(session); ok && id <= 2 {
				t.Fatalf("session %q routed to revoked backend %d after its drain", session, id)
			}
		}
	}
	for _, id := range []int{0, 1, 2} {
		if !completed[id] {
			t.Fatalf("revoked backend %d terminated without completing its drain", id)
		}
	}

	// The post-churn cluster still serves.
	req, _ := http.NewRequest(http.MethodGet, "/", nil)
	w := &sink{}
	cl.ServeHTTP(w, req)
	if w.status() != http.StatusOK {
		t.Fatalf("post-churn request failed with %d", w.status())
	}
}

// TestStressClusterAdmissionControl saturates a small admission budget and
// checks the token bucket sheds instead of queueing: far fewer served than
// offered, and the unrouted counter reflects the shed requests.
func TestStressClusterAdmissionControl(t *testing.T) {
	reg := metrics.NewRegistry()
	cl := NewCluster(ClusterConfig{
		Backend: BackendConfig{
			BaseServiceTime: 50 * time.Microsecond,
		},
		Warning:  time.Second,
		Metrics:  reg,
		AdmitRPS: 200,
	})
	defer cl.Close()
	cl.AddBackend(1000)

	const offered = 600
	var wg sync.WaitGroup
	var okCount atomic.Int64
	start := time.Now()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < offered/3; i++ {
				req, _ := http.NewRequest(http.MethodGet, "/", nil)
				w := &sink{}
				cl.ServeHTTP(w, req)
				if w.status() == http.StatusOK {
					okCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	ok := okCount.Load()
	if ok == 0 {
		t.Fatal("admission control shed everything, including the burst")
	}
	// The bucket bounds admits to burst + rate·elapsed regardless of the
	// offered load (slack for timer jitter).
	if bound := admitBurst + 200*elapsed*1.5 + 5; float64(ok) > bound {
		t.Fatalf("admission control admitted %d of %d requests in %.3fs (bound %.0f)", ok, offered, elapsed, bound)
	}
}
