package matrix

import (
	"math/rand"
	"testing"
)

// benchGraph builds a power-law-ish random sparse matrix reused across
// the kernel benchmarks.
func benchGraph(n, avgDeg int) *CSR {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(n, n)
	b.Reserve(n * avgDeg)
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(2*avgDeg)
		for d := 0; d < deg; d++ {
			// Skew targets toward low ids for a heavy-tailed in-degree.
			t := int(float64(n) * rng.Float64() * rng.Float64())
			if t != i {
				b.Add(i, t, 1)
			}
		}
	}
	return b.Build()
}

func BenchmarkTranspose(b *testing.B) {
	m := benchGraph(20000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transpose()
	}
}

func BenchmarkSpGEMM(b *testing.B) {
	m := benchGraph(5000, 8)
	mt := m.Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulPruned(m, mt, 0)
	}
}

func BenchmarkSpGEMMPruned(b *testing.B) {
	m := benchGraph(5000, 8)
	mt := m.Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulPruned(m, mt, 2)
	}
}

func BenchmarkSpGEMMTopK(b *testing.B) {
	m := benchGraph(5000, 8)
	mt := m.Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulTopK(m, mt, 0, 30)
	}
}

func BenchmarkXXTScaledPruned(b *testing.B) {
	m := benchGraph(8192, 12)
	mt := m.Transpose()
	rs := randomScale(rand.New(rand.NewSource(3)), m.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulXXTScaledPruned(m, mt, rs, nil, 0.5, 1)
	}
}

func BenchmarkBuilderBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 50000
	type trip struct {
		r, c int
		v    float64
	}
	trips := make([]trip, 8*n)
	for i := range trips {
		trips[i] = trip{rng.Intn(n), rng.Intn(n), 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(n, n)
		bu.Reserve(len(trips))
		for _, t := range trips {
			bu.Add(t.r, t.c, t.v)
		}
		bu.Build()
	}
}

func BenchmarkMulVec(b *testing.B) {
	m := benchGraph(50000, 10)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}
