package symcluster_test

import (
	"context"
	"fmt"

	"symcluster"
)

// ExampleSymmetrizeCtx demonstrates the Figure-1 effect: the twin nodes
// share no edge under A+Aᵀ but are strongly connected under the
// degree-discounted similarity.
func ExampleSymmetrizeCtx() {
	ctx := context.Background()
	data := symcluster.Figure1()

	aat, _ := symcluster.SymmetrizeCtx(ctx, data.Graph, symcluster.AAT, symcluster.DefaultSymmetrizeOptions())
	dd, _ := symcluster.SymmetrizeCtx(ctx, data.Graph, symcluster.DegreeDiscounted, symcluster.DefaultSymmetrizeOptions())

	fmt.Printf("twins edge under A+A': %.3f\n", aat.Adj.At(4, 5))
	fmt.Printf("twins edge under DegreeDiscounted: %.3f\n", dd.Adj.At(4, 5))
	// Output:
	// twins edge under A+A': 0.000
	// twins edge under DegreeDiscounted: 1.414
}

// ExampleClusterDirectedCtx runs the full two-stage pipeline on the
// Figure-1 graph and recovers its three natural groups.
func ExampleClusterDirectedCtx() {
	data := symcluster.Figure1()
	res, _ := symcluster.ClusterDirectedCtx(context.Background(), data.Graph,
		symcluster.DegreeDiscounted, symcluster.DefaultSymmetrizeOptions(),
		symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 2, Seed: 1})

	fmt.Printf("clusters: %d\n", res.K)
	fmt.Printf("twins together: %v\n", res.Assign[4] == res.Assign[5])
	// Output:
	// clusters: 3
	// twins together: true
}

// ExampleEvaluate scores a clustering with the paper's micro-averaged
// best-match F-measure.
func ExampleEvaluate() {
	truth, _ := symcluster.NewGroundTruth([][]int{{0}, {0}, {1}, {1}})
	rep, _ := symcluster.Evaluate([]int{0, 0, 1, 1}, truth)
	fmt.Printf("Avg F = %.2f\n", rep.AvgF)
	// Output:
	// Avg F = 1.00
}

// ExampleNewMatrixBuilder constructs a small directed graph by hand
// and symmetrizes it.
func ExampleNewMatrixBuilder() {
	b := symcluster.NewMatrixBuilder(3, 3)
	b.Add(0, 1, 1) // 0 → 1
	b.Add(2, 1, 1) // 2 → 1
	g, _ := symcluster.NewDirectedGraph(b.Build(), []string{"a", "b", "c"})

	// 0 and 2 share the out-link to 1, so bibliometric coupling
	// connects them.
	u, _ := symcluster.SymmetrizeCtx(context.Background(), g, symcluster.Bibliometric, symcluster.DefaultSymmetrizeOptions())
	fmt.Printf("coupling between a and c: %.0f\n", u.Adj.At(0, 2))
	// Output:
	// coupling between a and c: 1
}
