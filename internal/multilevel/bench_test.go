package multilevel

import (
	"context"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
)

// BenchmarkColdCoarsen is the coarsening inside a sym_cold request's
// cluster stage: the hierarchy Graclus builds over the 8 k-node R-MAT
// graph degree-discounted at 0.03 for 64 clusters (it stops at 256
// nodes) — heavy-edge matching and a contraction per level. Run it at
// -cpu 1,2: the contraction's fold derives its workers from GOMAXPROCS.
func BenchmarkColdCoarsen(b *testing.B) {
	d, err := gen.Kronecker(gen.KroneckerOptions{Scale: 13, EdgeFactor: 12, Reciprocity: 0.62, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Defaults()
	opt.Threshold = 0.03
	u, err := core.SymmetrizeCtx(context.Background(), d.Graph, core.DegreeDiscounted, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CoarsenCtx(context.Background(), u.Adj, Options{MinNodes: 256, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
