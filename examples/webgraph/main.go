// Webgraph: the hub pathology on a Wikipedia-like hyperlink graph —
// why raw bibliometric similarity breaks on power-law networks and how
// degree-discounting plus pruning fixes it (paper §3.4–§3.5, Figure 4,
// Table 5).
//
// Run with: go run ./examples/webgraph
package main

import (
	"context"
	"fmt"
	"log"

	"symcluster"
)

func main() {
	data, err := symcluster.GenerateWiki(symcluster.WikiOptions{
		ListClusters:  60,
		RecipClusters: 60,
		Seed:          11,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := data.Graph
	ctx := context.Background()
	fmt.Printf("wiki-like graph: %d pages, %d links, %.1f%% reciprocal\n\n",
		g.N(), g.M(), 100*g.SymmetricLinkFraction())

	// 1. The hub problem: compare top-weighted edges of Bibliometric
	//    and Degree-discounted similarity.
	for _, method := range []symcluster.SymMethod{symcluster.Bibliometric, symcluster.DegreeDiscounted} {
		u, err := symcluster.SymmetrizeCtx(ctx, g, method, symcluster.DefaultSymmetrizeOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top 5 edges under %v:\n", method)
		for _, e := range u.TopEdges(5) {
			fmt.Printf("  %-30s -- %-30s %10.1f\n", g.Label(e.U), g.Label(e.V), e.Weight)
		}
		fmt.Println()
	}
	fmt.Println("Bibliometric's heaviest edges join hub pages; Degree-discounted's")
	fmt.Println("join near-duplicate specific pages (the paper's Table 5).")

	// 2. Threshold calibration (§5.3.1): pick a prune threshold that
	//    yields a desired average degree, then cluster.
	opt := symcluster.DefaultSymmetrizeOptions()
	th, err := symcluster.CalibrateThresholdCtx(ctx, g, opt, 30, 200, 11)
	if err != nil {
		log.Fatal(err)
	}
	opt.Threshold = th
	u, err := symcluster.SymmetrizeCtx(ctx, g, symcluster.DegreeDiscounted, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncalibrated threshold %.4f -> %d edges (avg degree %.1f)\n",
		th, u.M(), 2*float64(u.M())/float64(u.N()))

	res, err := symcluster.ClusterCtx(ctx, u, symcluster.Metis, symcluster.ClusterOptions{
		TargetClusters: data.Truth.K,
		Seed:           11,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := symcluster.Evaluate(res.Assign, data.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Metis on pruned degree-discounted graph: %d clusters, Avg F = %.2f%%\n",
		res.K, 100*rep.AvgF)
}
