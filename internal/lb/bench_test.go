package lb

// Data-plane benchmarks. Names matter: the CI bench gate runs
// -bench 'BenchmarkRoute|BenchmarkLB' -count=10 and compares ns/op against
// the checked-in BENCH_lb.json (scripts/benchdiff). BenchmarkRouteContended
// pairs the lock-free plane against the serialref_test.go mutex baseline
// under 16-goroutine contention — the headline number of the refactor.

import (
	"runtime"
	"strconv"
	"testing"
)

// benchBalancer builds a mid-revocation balancer: 16 live backends, 512
// bound sessions, one soft- and one hard-draining extra backend so the
// routing views are non-trivial (the serial baseline pays its per-route
// drain-map copies, as production would).
func benchBalancer() *Balancer {
	b := NewBalancer()
	for i := 0; i < 16; i++ {
		b.WRR.SetWeight(i, float64(1+i%5))
	}
	for s := 0; s < 512; s++ {
		b.Route("s" + strconv.Itoa(s))
	}
	b.WRR.SetWeight(100, 2)
	b.WRR.SetWeight(101, 2)
	b.WRR.setDrain(100, false)
	b.WRR.setDrain(101, true)
	return b
}

// benchSerialRouter is the identical scenario on the mutex-serialized
// reference.
func benchSerialRouter() *serialRouter {
	r := newSerialRouter()
	for i := 0; i < 16; i++ {
		r.wrr.SetWeight(i, float64(1+i%5))
	}
	for s := 0; s < 512; s++ {
		r.Route("s" + strconv.Itoa(s))
	}
	r.wrr.SetWeight(100, 2)
	r.wrr.SetWeight(101, 2)
	r.setDrain(100, false)
	r.setDrain(101, true)
	return r
}

func BenchmarkRouteAnonymous(b *testing.B) {
	bal := benchBalancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Route("")
	}
}

func BenchmarkRouteSession(b *testing.B) {
	bal := benchBalancer()
	sessions := make([]string, 512)
	for i := range sessions {
		sessions[i] = "s" + strconv.Itoa(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Route(sessions[i&511])
	}
}

// contendedMix is the shared workload for the contended pair: half sticky
// (cycling a 512-session pool), half anonymous — the sessionless share of
// real web traffic (assets, APIs, health checks).
func contendedMix(route func(string) (int, bool), sessions []string, pb *testing.PB) {
	i := 0
	for pb.Next() {
		if i&1 == 0 {
			route("")
		} else {
			route(sessions[i&511])
		}
		i++
	}
}

// BenchmarkRouteContended pits the two data planes against each other at 16
// goroutines. The ratio serial/sharded is the refactor's acceptance number
// (≥10× in BENCH_lb.json).
func BenchmarkRouteContended(b *testing.B) {
	sessions := make([]string, 512)
	for i := range sessions {
		sessions[i] = "s" + strconv.Itoa(i)
	}
	par := 16 / runtime.GOMAXPROCS(0)
	if par < 1 {
		par = 1
	}
	b.Run("sharded", func(b *testing.B) {
		bal := benchBalancer()
		b.SetParallelism(par)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) { contendedMix(bal.Route, sessions, pb) })
	})
	b.Run("serial", func(b *testing.B) {
		r := benchSerialRouter()
		b.SetParallelism(par)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) { contendedMix(r.Route, sessions, pb) })
	})
}

func BenchmarkLBWRRNext(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			w := NewSmoothWRR()
			for i := 0; i < n; i++ {
				w.SetWeight(i, float64(1+i%7))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Next()
			}
		})
	}
}

func BenchmarkLBSessionTable(b *testing.B) {
	tab := NewSessionTable()
	sessions := make([]string, 4096)
	for i := range sessions {
		sessions[i] = "sess-" + strconv.Itoa(i)
		tab.Assign(sessions[i], i%16)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s := sessions[i&4095]
			switch i & 7 {
			case 0:
				tab.Assign(s, i%16)
			case 7:
				tab.End(s)
			default:
				tab.Lookup(s)
			}
			i++
		}
	})
}

func BenchmarkLBAdmission(b *testing.B) {
	tb := NewTokenBucket(1e9, 1<<30) // never rejects: measures the CAS path
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tb.Allow()
		}
	})
}

func BenchmarkLBMigrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bal := NewBalancer()
		bal.UpdatePortfolio(map[int]float64{1: 1, 2: 1, 3: 1})
		for s := 0; s < 1000; s++ {
			bal.Route("s" + strconv.Itoa(s))
		}
		b.StartTimer()
		bal.HandleWarning(1, 0.5, 60, 120)
	}
}
