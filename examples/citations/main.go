// Citations: cluster a synthetic citation network (the paper's Cora
// scenario) with every symmetrization and compare F-scores against
// ground truth, including the BestWCut spectral baseline.
//
// Run with: go run ./examples/citations
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"symcluster"
)

func main() {
	data, err := symcluster.GenerateCitation(symcluster.CitationOptions{
		Nodes:  3000,
		Topics: 40,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := data.Graph
	ctx := context.Background()
	fmt.Printf("citation network: %d papers, %d citations, %.1f%% reciprocal, %d topics\n\n",
		g.N(), g.M(), 100*g.SymmetricLinkFraction(), data.Truth.K)

	fmt.Printf("%-18s %10s %10s %8s\n", "Symmetrization", "Clusters", "Avg F %", "Secs")
	var ddAssign, aatAssign []int
	for _, method := range symcluster.Methods {
		start := time.Now()
		res, err := symcluster.ClusterDirectedCtx(ctx, g, method, symcluster.DefaultSymmetrizeOptions(),
			symcluster.MLRMCL, symcluster.ClusterOptions{Inflation: 1.35, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := symcluster.Evaluate(res.Assign, data.Truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %10d %10.2f %8.2f\n", method, res.K, 100*rep.AvgF, time.Since(start).Seconds())
		if method == symcluster.DegreeDiscounted {
			ddAssign = res.Assign
		} else if method == symcluster.AAT {
			aatAssign = res.Assign
		}
	}

	// The directed spectral baseline the paper compares against.
	start := time.Now()
	bw, err := symcluster.ClusterDirectedCtx(ctx, g, symcluster.AAT, symcluster.DefaultSymmetrizeOptions(),
		symcluster.BestWCutAlgo, symcluster.ClusterOptions{TargetClusters: data.Truth.K, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := symcluster.Evaluate(bw.Assign, data.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %10d %10.2f %8.2f\n", "BestWCut", bw.K, 100*rep.AvgF, time.Since(start).Seconds())

	// Statistical significance of the degree-discounted improvement
	// over A+Aᵀ (paired binomial sign test, §5.6).
	st, err := symcluster.SignTest(ddAssign, aatAssign, data.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsign test DegreeDiscounted vs A+A': %d vs %d discordant nodes, log10(p) = %.1f\n",
		st.NAOnly, st.NBOnly, st.Log10P)
}
