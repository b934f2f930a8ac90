package metis

import (
	"math/rand"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
)

// BenchmarkServeMetis is the clustering of 1 in 20 requests of the
// repository benchmark's serve_mixed workload without the server around
// it: a Wikipedia-like graph of 8 list and 8 reciprocal clusters (≈540
// nodes, ≈17 k entries once degree-discounted at 0.05), partitioned
// into the planted cluster count the way the pipeline's metis entry
// does.
func BenchmarkServeMetis(b *testing.B) {
	ds, err := gen.Wiki(gen.WikiOptions{
		ListClusters: 8, RecipClusters: 8,
		ListMembersMin: 20, ListMembersMax: 20,
		RecipMembersMin: 28, RecipMembersMax: 28,
		Seed: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Defaults()
	opt.Threshold = 0.05
	u, err := core.Symmetrize(ds.Graph, core.DegreeDiscounted, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(u.Adj, ds.Truth.K, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionK8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := blockGraph(rng, 8, 80, 0.15, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(adj, 8, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionK64(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	adj, _ := blockGraph(rng, 16, 60, 0.15, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(adj, 64, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
