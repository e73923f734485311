package solver

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/linalg"
)

func BenchmarkBoxBandProject(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			lo := linalg.NewVector(n)
			hi := linalg.NewVector(n)
			hi.Fill(1)
			set := NewBoxBand(lo, hi, 1, 1.5)
			rng := rand.New(rand.NewSource(1))
			x := linalg.NewVector(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				set.Project(x)
			}
		})
	}
}

func BenchmarkSolveFISTA(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	_, proj := portfolioLikeQP(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveFISTA(proj, FISTASettings{MaxIter: 2000, Tol: 1e-8})
	}
}

func BenchmarkSolveADMM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	gen, _ := portfolioLikeQP(rng, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveADMM(gen, ADMMSettings{MaxIter: 4000})
	}
}
