package symcluster

import (
	"symcluster/internal/bipartite"
	"symcluster/internal/eval"
	"symcluster/internal/mcl"
	"symcluster/internal/multipartite"
)

// This file exposes the library extensions beyond the paper's core
// experiments: standard clustering-agreement indices, the bipartite
// co-clustering of the paper's future-work section, plain (van Dongen)
// MCL and textbook undirected spectral clustering.

// NMI returns the normalised mutual information between two flat
// partitions, in [0, 1].
func NMI(a, b []int) (float64, error) { return eval.NMI(a, b) }

// ARI returns the adjusted Rand index between two flat partitions.
func ARI(a, b []int) (float64, error) { return eval.ARI(a, b) }

// Purity returns the weighted majority-class purity of partition a
// against reference partition b.
func Purity(a, b []int) (float64, error) { return eval.Purity(a, b) }

// Modularity returns the Newman–Girvan modularity of a clustering over
// a symmetrized (undirected) graph.
func Modularity(u *UndirectedGraph, assign []int) (float64, error) {
	return eval.Modularity(u.Adj, assign)
}

// ModularityDirected returns the Leicht–Newman directed modularity of
// a clustering over the original directed graph.
func ModularityDirected(g *DirectedGraph, assign []int) (float64, error) {
	return eval.ModularityDirected(g.Adj, assign)
}

// BipartiteOptions configures CoClusterBipartite.
type BipartiteOptions = bipartite.Options

// BipartiteResult is the output of CoClusterBipartite.
type BipartiteResult = bipartite.Result

// CoClusterBipartite clusters both sides of a bipartite directed graph
// (given as its n×m biadjacency matrix) using the degree-discounted
// similarity on each side — the paper's §6 future-work extension to
// bipartite graphs. Column clusters are aligned to their
// strongest-attached row clusters.
func CoClusterBipartite(biadjacency *Matrix, opt BipartiteOptions) (*BipartiteResult, error) {
	return bipartite.CoCluster(biadjacency, opt)
}

// PlainMCL runs original (unregularized) MCL on a symmetrized graph —
// the baseline R-MCL improves on. Kept for comparisons; it fragments
// large graphs into many more clusters than MLR-MCL.
func PlainMCL(u *UndirectedGraph, inflation float64, seed int64) (*Clustering, error) {
	res, err := mcl.Cluster(u.Adj, mcl.Options{Plain: true, Inflation: inflation, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Clustering{Assign: res.Assign, K: res.K}, nil
}

// Multipartite types: a k-partite graph is disjoint node layers plus
// directed relations between layers; each layer is clustered on the
// aggregated degree-discounted similarity over its incident relations.
type (
	// MultipartiteGraph is a k-partite directed graph.
	MultipartiteGraph = multipartite.Graph
	// MultipartiteRelation is one inter-layer link matrix.
	MultipartiteRelation = multipartite.Relation
	// MultipartiteOptions configures ClusterMultipartite.
	MultipartiteOptions = multipartite.Options
	// MultipartiteResult holds per-layer clusterings.
	MultipartiteResult = multipartite.Result
)

// ClusterMultipartite clusters every layer of a k-partite directed
// graph — the general form of the paper's §6 future-work extension.
func ClusterMultipartite(g *MultipartiteGraph, opt MultipartiteOptions) (*MultipartiteResult, error) {
	return multipartite.Cluster(g, opt)
}

// SpectralNCut runs classic undirected spectral clustering (normalised
// cut relaxation + k-means) on a symmetrized graph.
func SpectralNCut(u *UndirectedGraph, k int, seed int64) (*Clustering, error) {
	return Cluster(u, Spectral, ClusterOptions{TargetClusters: k, Seed: seed})
}
