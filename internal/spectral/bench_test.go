package spectral

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

func benchSym(n, avgDeg int) *matrix.CSR {
	rng := rand.New(rand.NewSource(5))
	b := matrix.NewBuilder(n, n)
	for e := 0; e < n*avgDeg/2; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.Add(u, v, 1)
		b.Add(v, u, 1)
	}
	return b.Build()
}

func BenchmarkLanczosTop10(b *testing.B) {
	m := benchSym(3000, 10)
	op := Operator(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopEigenCtx(context.Background(), op, 10, LanczosOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseEigenN300(b *testing.B) {
	m := benchSym(300, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DenseEigen(m, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, 5000)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64() + float64(i%5)*3}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KMeansCtx(context.Background(), x, 5, KMeansOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestWCutLanczos(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a, _ := directedBlocks(rng, 5, 100, 0.1, 0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestWCut(a, 5, BestWCutOptions{
			KMeans:  KMeansOptions{Seed: int64(i)},
			Lanczos: LanczosOptions{Seed: int64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
