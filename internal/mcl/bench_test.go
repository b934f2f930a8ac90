package mcl

import (
	"math/rand"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
)

// BenchmarkMCLHot is one request of the repository benchmark's mcl_hot
// workload without the server around it: a Wikipedia-like graph of 8
// list and 8 reciprocal clusters (≈540 nodes), degree-discounted at
// threshold 0.05, clustered the way the pipeline's mcl entry does.
// Run it at -cpu 1,2: the one-core number is what a request gets when
// the pool's other workers are busy.
func BenchmarkMCLHot(b *testing.B) {
	ds, err := gen.Wiki(gen.WikiOptions{
		ListClusters: 8, RecipClusters: 8,
		ListMembersMin: 20, ListMembersMax: 20,
		RecipMembersMin: 28, RecipMembersMax: 28,
		Seed: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	symOpt := core.Defaults()
	symOpt.Threshold = 0.05
	u, err := core.Symmetrize(ds.Graph, core.DegreeDiscounted, symOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(u.Adj, Options{Inflation: 2, MaxIter: 40, MaxPerColumn: 30, ConvergenceTol: 1e-4, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRMCL(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := blockGraph(rng, 10, 60, 0.2, 0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(adj, Options{Inflation: 1.5, MaxIter: 30, MaxPerColumn: 30, ConvergenceTol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLRMCL(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	adj, _ := blockGraph(rng, 20, 60, 0.15, 0.003)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(adj, Options{
			Inflation: 1.5, Multilevel: true, CoarsenTo: 200,
			MaxIter: 30, MaxPerColumn: 30, ConvergenceTol: 1e-3, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
