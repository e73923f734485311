package linalg

import (
	"math/rand"
	"testing"
)

func benchSPD(n int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, n+3, n)
	s := a.AtA()
	s.AddDiag(0.5)
	return s
}

func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(itoa(n), func(b *testing.B) {
			m := benchSPD(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Cholesky(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMulVecDense(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(itoa(n), func(b *testing.B) {
			m := benchSPD(n)
			x := NewVector(n)
			x.Fill(1)
			dst := NewVector(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVec(x, dst)
			}
		})
	}
}

func BenchmarkMulVecSparseVsDense(b *testing.B) {
	// Group-sparse matrix: ~10% fill.
	n := 512
	m := NewMatrix(n, n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
		for j := 0; j < n; j++ {
			if i%7 == j%7 && rng.Float64() < 0.5 {
				m.Set(i, j, 0.1)
			}
		}
	}
	c := NewCSRFromDense(m, 0)
	x := NewVector(n)
	x.Fill(1)
	dst := NewVector(n)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVec(x, dst)
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.MulVec(x, dst)
		}
	})
}

func BenchmarkFactorModelMulVec(b *testing.B) {
	n, k := 512, 6
	f := NewMatrix(n, k)
	rng := rand.New(rand.NewSource(3))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	d := NewVector(n)
	d.Fill(0.1)
	fm := &FactorModel{D: d, F: f}
	x := NewVector(n)
	x.Fill(1)
	dst := NewVector(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.MulVec(x, dst)
	}
}

func BenchmarkAtA(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 400, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AtA()
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
