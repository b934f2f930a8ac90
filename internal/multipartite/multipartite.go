// Package multipartite extends the degree-discounted symmetrization to
// k-partite directed graphs — the paper's §6 future-work item
// ("Extending our approaches to bi-partite and multi-partite graphs").
//
// A multipartite graph has disjoint node layers and directed relations
// between layers (users→items, items→tags, users→tags, …); a bipartite
// graph is the two-layer case with one relation 0→1. A layer's
// nodes are similar when they share links through ANY relation
// touching the layer, so the layer similarity is the sum of the
// degree-discounted self-products over all incident relations:
//
//	Sim_L = Σ_{r: From(r)=L} D_r^{-α} B_r D_c^{-β} B_rᵀ D_r^{-α}
//	      + Σ_{r: To(r)=L}   D_c^{-β} B_rᵀ D_r^{-α} B_r D_c^{-β}
//
// Each layer is then clustered independently with MLR-MCL.
package multipartite

import (
	"context"
	"fmt"

	"symcluster/internal/core"
	"symcluster/internal/matrix"
	"symcluster/internal/mcl"
)

// Relation is one directed relation between two layers: B[i][j] > 0
// means node i of layer From links to node j of layer To.
type Relation struct {
	From, To int
	B        *matrix.CSR
}

// Graph is a k-partite directed graph.
type Graph struct {
	// LayerSizes gives the node count of each layer.
	LayerSizes []int
	// Relations lists the inter-layer link matrices.
	Relations []Relation
}

// Validate checks layer indices and matrix dimensions.
func (g *Graph) Validate() error {
	if len(g.LayerSizes) == 0 {
		return fmt.Errorf("multipartite: no layers")
	}
	for i, n := range g.LayerSizes {
		if n <= 0 {
			return fmt.Errorf("multipartite: layer %d has size %d", i, n)
		}
	}
	for i, r := range g.Relations {
		if r.From < 0 || r.From >= len(g.LayerSizes) || r.To < 0 || r.To >= len(g.LayerSizes) {
			return fmt.Errorf("multipartite: relation %d links layers %d→%d outside [0,%d)", i, r.From, r.To, len(g.LayerSizes))
		}
		if r.From == r.To {
			return fmt.Errorf("multipartite: relation %d is intra-layer; layers must be independent sets", i)
		}
		if r.B == nil {
			return fmt.Errorf("multipartite: relation %d has nil matrix", i)
		}
		if r.B.Rows != g.LayerSizes[r.From] || r.B.Cols != g.LayerSizes[r.To] {
			return fmt.Errorf("multipartite: relation %d is %dx%d, want %dx%d",
				i, r.B.Rows, r.B.Cols, g.LayerSizes[r.From], g.LayerSizes[r.To])
		}
	}
	return nil
}

// Options configures LayerSimilarity and Cluster.
type Options struct {
	// Alpha discounts the degree of the nodes being compared.
	// Defaults to 0.5.
	Alpha float64
	// Beta discounts the degree of the shared neighbours.
	// Defaults to 0.5.
	Beta float64
	// Threshold prunes similarity entries below it.
	Threshold float64
	// Inflation is the MLR-MCL inflation per layer. Defaults to 2.
	Inflation float64
	// Seed drives clustering randomness.
	Seed int64
}

func (o *Options) fill() {
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Beta == 0 {
		o.Beta = 0.5
	}
	if o.Inflation <= 1 {
		o.Inflation = 2
	}
}

// LayerSimilarity returns the degree-discounted similarity between the
// nodes of one layer, aggregated over every relation incident to it.
func LayerSimilarity(ctx context.Context, g *Graph, layer int, opt Options) (*matrix.CSR, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if layer < 0 || layer >= len(g.LayerSizes) {
		return nil, fmt.Errorf("multipartite: layer %d outside [0,%d)", layer, len(g.LayerSizes))
	}
	opt.fill()
	// The discount factors fold into the fused self-products, so no scaled
	// relation matrix is materialised; for incoming relations the one
	// explicit transpose doubles as the kernel's transpose operand, since
	// (Bᵀ)ᵀ is B again bit-exactly. The terms are summed as upper
	// triangles, the diagonal dropped as they are, and mirrored once.
	var terms []matrix.XXTTerm
	for _, r := range g.Relations {
		switch {
		case r.From == layer:
			terms = append(terms, matrix.XXTTerm{X: r.B, XT: r.B.Transpose(),
				RowScale: core.DiscountVector(r.B.RowCounts(), core.PowerDiscount, opt.Alpha, 1),
				ColScale: core.DiscountVector(r.B.ColCounts(), core.PowerDiscount, opt.Beta, 0.5)})
		case r.To == layer:
			terms = append(terms, matrix.XXTTerm{X: r.B.Transpose(), XT: r.B,
				RowScale: core.DiscountVector(r.B.ColCounts(), core.PowerDiscount, opt.Beta, 1),
				ColScale: core.DiscountVector(r.B.RowCounts(), core.PowerDiscount, opt.Alpha, 0.5)})
		}
	}
	up, _, err := matrix.SumXXTScaledPrunedUpperCtx(ctx, g.LayerSizes[layer], terms, opt.Threshold, true, nil)
	if err != nil {
		return nil, err
	}
	return matrix.MirrorUpper(up), nil
}

// Result holds per-layer clusterings.
type Result struct {
	// Assign[l] maps layer l's nodes to cluster ids in [0, K[l]).
	Assign [][]int
	// K[l] counts layer l's clusters.
	K []int
}

// Cluster clusters every layer of the multipartite graph; a cancelled
// ctx aborts it within one kernel block with ctx's error.
func Cluster(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	res := &Result{
		Assign: make([][]int, len(g.LayerSizes)),
		K:      make([]int, len(g.LayerSizes)),
	}
	for l := range g.LayerSizes {
		sim, err := LayerSimilarity(ctx, g, l, opt)
		if err != nil {
			return nil, err
		}
		r, err := mcl.ClusterCtx(ctx, sim, mcl.Options{Inflation: opt.Inflation, Seed: opt.Seed})
		if err != nil {
			return nil, fmt.Errorf("multipartite: clustering layer %d: %w", l, err)
		}
		res.Assign[l] = r.Assign
		res.K[l] = r.K
	}
	return res, nil
}
