package symcluster

import (
	"context"

	"symcluster/internal/multipartite"
)

// Multipartite types: a k-partite graph is disjoint node layers plus
// directed relations between layers; each layer is clustered on the
// aggregated degree-discounted similarity over its incident relations.
// A bipartite graph (users → items) is the two-layer case: LayerSizes
// {n, m} and the one relation 0→1 with the n×m biadjacency matrix.
type (
	// MultipartiteGraph is a k-partite directed graph.
	MultipartiteGraph = multipartite.Graph
	// MultipartiteRelation is one inter-layer link matrix.
	MultipartiteRelation = multipartite.Relation
	// MultipartiteOptions configures ClusterMultipartiteCtx.
	MultipartiteOptions = multipartite.Options
	// MultipartiteResult holds per-layer clusterings.
	MultipartiteResult = multipartite.Result
)

// ClusterMultipartiteCtx clusters every layer of a k-partite directed
// graph — the paper's §6 future-work extension to bipartite and
// multipartite graphs.
func ClusterMultipartiteCtx(ctx context.Context, g *MultipartiteGraph, opt MultipartiteOptions) (*MultipartiteResult, error) {
	return multipartite.Cluster(ctx, g, opt)
}
