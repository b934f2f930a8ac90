package mcl

import (
	"context"
	"testing"

	"symcluster/internal/obs"
)

// TestFlowRowsGroupOnMCLHot holds the expansion to the structure it
// exploits, on BenchmarkMCLHot's input: by iteration 10 at least 80 % of
// the flow rows are expanded in groups of two or more rows sharing their
// support. A change that keeps the bits but expands every row alone
// fails here, not only in a benchmark.
func TestFlowRowsGroupOnMCLHot(t *testing.T) {
	adj := mclHotInput(t)
	grouped := func(maxIter int) int64 {
		trace := obs.NewTrace()
		ctx, root := trace.StartRoot(context.Background(), "test")
		res, err := ClusterCtx(ctx, adj, mclHotOptions(maxIter, 1))
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != maxIter {
			t.Fatalf("the solve stopped after %d iterations, want %d", res.Iterations, maxIter)
		}
		spans := iterateSpans(trace.Tree())
		if len(spans) != 1 {
			t.Fatalf("%d mcl.iterate spans, want one", len(spans))
		}
		return spans[0].Attrs["grouped_rows"].(int64)
	}
	// the rows grouped in the eleventh product, iteration 10
	n, rows := grouped(11)-grouped(10), int64(adj.Rows)
	t.Logf("iteration 10 expanded %d of %d rows in groups", n, rows)
	if 5*n < 4*rows {
		t.Fatalf("iteration 10 expanded %d of %d rows in groups, want at least 80 %%", n, rows)
	}
}
