package core

import (
	"bytes"
	"context"
	"testing"

	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/matrix"
)

// BenchmarkSymCold is one request of the repository benchmark's
// sym_cold workload up to the clusterer, without the server around it:
// the edge-list text of a scale-13 R-MAT graph (edge factor 12,
// reciprocity 0.62 — about 8 k nodes and 132 k edges in 1.2 MB) is
// parsed and degree-discounted at threshold 0.03. Run it at -cpu 1,2:
// the product's workers are derived from GOMAXPROCS, and the one-core
// number is both the paper's set-up and what a request gets when the
// pool's other workers are busy.
func BenchmarkSymCold(b *testing.B) {
	text := symColdText(b)
	opt := Defaults()
	opt.Threshold = 0.03
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SymmetrizeCtx(context.Background(), g, DegreeDiscounted, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// symColdText is the edge-list text sym_cold uploads: a scale-13 R-MAT
// graph, edge factor 12, reciprocity 0.62.
func symColdText(b *testing.B) *bytes.Buffer {
	d, err := gen.Kronecker(gen.KroneckerOptions{Scale: 13, EdgeFactor: 12, Reciprocity: 0.62, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, d.Graph); err != nil {
		b.Fatal(err)
	}
	return &text
}

// BenchmarkSymColdProduct is BenchmarkSymCold's degree-discounted
// product alone: the graph parsed, Aᵀ and the four discount vectors
// formed once, and each iteration the one fused sum of the two scaled,
// pruned self-products (their upper triangle, before the mirror). Run it
// at -cpu 1,2 beside BenchmarkSymCold.
func BenchmarkSymColdProduct(b *testing.B) {
	g, err := graph.ReadEdgeList(symColdText(b))
	if err != nil {
		b.Fatal(err)
	}
	opt := Defaults()
	opt.Threshold = 0.03
	a := g.Adj
	terms := xxtTerms(a, a.Transpose(), DegreeDiscounted, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := matrix.SumXXTScaledPrunedUpperCtx(context.Background(), a.Rows, terms, opt.Threshold, opt.DropDiagonal, nil); err != nil {
			b.Fatal(err)
		}
	}
}
