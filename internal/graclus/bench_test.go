package graclus

import (
	"context"
	"math/rand"
	"testing"
)

func BenchmarkClusterK8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := blockGraph(rng, 8, 80, 0.15, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterCtx(context.Background(), adj, 8, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterK64(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	adj, _ := blockGraph(rng, 16, 60, 0.15, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterCtx(context.Background(), adj, 64, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
