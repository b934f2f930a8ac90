package graph_test // external: gen imports graph

import (
	"bytes"
	"fmt"
	"testing"

	"symcluster/internal/gen"
	"symcluster/internal/graph"
)

// symColdText is the body of one sym_cold upload of the repository
// benchmark: the edge list of a scale-13 R-MAT graph (edge factor 12,
// reciprocity 0.62 — about 8 k nodes and 132 k edges in 1.2 MB) with its
// last edge repeated, which is what makes each upload a graph the
// server has not seen and what takes the text out of row-major order.
func symColdText(b *testing.B) []byte {
	b.Helper()
	d, err := gen.Kronecker(gen.KroneckerOptions{Scale: 13, EdgeFactor: 12, Reciprocity: 0.62, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, d.Graph); err != nil {
		b.Fatal(err)
	}
	adj := d.Graph.Adj
	last := adj.Rows - 1
	for adj.RowPtr[last] == adj.RowPtr[last+1] {
		last--
	}
	fmt.Fprintf(&text, "%d %d\n", last, adj.ColIdx[adj.NNZ()-1])
	return text.Bytes()
}

// BenchmarkReadEdgeList is the parse of that body: text to CSR.
func BenchmarkReadEdgeList(b *testing.B) {
	text := symColdText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegister is what POST /v1/graphs does with the body before
// it answers: parse, fingerprint (the graph id) and the symmetric-link
// fraction of the reply.
func BenchmarkRegister(b *testing.B) {
	text := symColdText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadEdgeList(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		sink += float64(g.Fingerprint()) + g.SymmetricLinkFraction()
	}
	if sink == 0 {
		b.Fatal("no graph registered")
	}
}
