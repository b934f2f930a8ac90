package graclus

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/multilevel"
)

// benchDD runs b's loop over the degree-discounted symmetrization of g
// pruned at threshold, clustered into k the way the pipeline's graclus
// entry does.
func benchDD(b *testing.B, g *graph.Directed, threshold float64, k int) {
	opt := core.Defaults()
	opt.Threshold = threshold
	u, err := core.SymmetrizeCtx(context.Background(), g, core.DegreeDiscounted, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterCtx(context.Background(), u.Adj, k, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// serveWiki is the serving graph of the repository benchmark's
// serve_mixed workload: a Wikipedia-like graph of 8 list and 8
// reciprocal clusters (≈540 nodes, ≈17 k entries once degree-discounted
// at 0.05).
func serveWiki(b testing.TB) *gen.Dataset {
	ds, err := gen.Wiki(gen.WikiOptions{
		ListClusters: 8, RecipClusters: 8,
		ListMembersMin: 20, ListMembersMax: 20,
		RecipMembersMin: 28, RecipMembersMax: 28,
		Seed: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkServeGraclus is the clustering of 19 in 20 requests of
// serve_mixed without the server around it and without a kept
// hierarchy — a symmetrization's first reuse: k the planted cluster
// count.
func BenchmarkServeGraclus(b *testing.B) {
	ds := serveWiki(b)
	benchDD(b, ds.Graph, 0.05, ds.Truth.K)
}

// BenchmarkServeGraclusKept is the same request as served from the
// second reuse on: the hierarchy comes from the cache entry's memo, so
// an iteration is base clustering, projection and refine. One
// sub-benchmark per symmetrization serve_mixed asks for, at its
// thresholds and its seed.
func BenchmarkServeGraclusKept(b *testing.B) {
	ds := serveWiki(b)
	for _, c := range []struct {
		name      string
		method    core.Method
		threshold float64
	}{
		{"dd", core.DegreeDiscounted, 0.05},
		{"aat", core.AAT, 0},
		{"bib", core.Bibliometric, 2},
		{"rw", core.RandomWalk, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			opt := core.Defaults()
			opt.Threshold = c.threshold
			u, err := core.SymmetrizeCtx(context.Background(), ds.Graph, c.method, opt)
			if err != nil {
				b.Fatal(err)
			}
			memo := multilevel.NewMemo(u.Adj, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ClusterCtx(context.Background(), u.Adj, ds.Truth.K, Options{Seed: 1, Hier: memo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdGraclus is the cluster stage of a sym_cold request: the
// 8 k-node R-MAT graph, degree-discounted at 0.03, into 64 clusters.
func BenchmarkColdGraclus(b *testing.B) {
	d, err := gen.Kronecker(gen.KroneckerOptions{Scale: 13, EdgeFactor: 12, Reciprocity: 0.62, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	benchDD(b, d.Graph, 0.03, 64)
}

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
