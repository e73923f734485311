package lb

import (
	"runtime"
	"strconv"
	"testing"
)

// benchBalancer builds a mid-revocation balancer: 16 live backends, 512
// bound sessions, one soft- and one hard-draining extra backend so the
// routing views differ.
func benchBalancer() *Balancer {
	b := NewBalancer()
	for i := 0; i < 16; i++ {
		b.SetWeight(i, float64(1+i%5))
	}
	for s := 0; s < 512; s++ {
		b.Route("s" + strconv.Itoa(s))
	}
	b.SetWeight(100, 2)
	b.SetWeight(101, 2)
	setDrain(b, 100, false)
	setDrain(b, 101, true)
	return b
}

func benchSessions() []string {
	sessions := make([]string, 512)
	for i := range sessions {
		sessions[i] = "s" + strconv.Itoa(i)
	}
	return sessions
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
	sessions := benchSessions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Route(sessions[i&511])
	}
}

// BenchmarkRouteContended routes from 16 goroutines, half sticky (cycling a
// 512-session pool) and half anonymous — the sessionless share of real web
// traffic (assets, APIs, health checks).
func BenchmarkRouteContended(b *testing.B) {
	bal := benchBalancer()
	sessions := benchSessions()
	par := 16 / runtime.GOMAXPROCS(0)
	if par < 1 {
		par = 1
	}
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if i&1 == 0 {
				bal.Route("")
			} else {
				bal.Route(sessions[i&511])
			}
		}
	})
}

func BenchmarkLBWRRNext(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			bal := NewBalancer()
			for i := 0; i < n; i++ {
				bal.SetWeight(i, float64(1+i%7))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(bal)
			}
		})
	}
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
