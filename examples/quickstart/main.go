// Quickstart: the two-stage pipeline on the paper's own Figure 1
// example, showing why symmetrization choice matters.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"symcluster"
)

func main() {
	// Figure 1 of the paper: six nodes where "twin-a" and "twin-b"
	// never link to each other, but point to the same two targets and
	// are pointed to by the same two sources. They form a natural
	// cluster that edge-direction-dropping symmetrizations cannot see.
	data := symcluster.Figure1()
	g := data.Graph
	ctx := context.Background()
	fmt.Printf("Figure 1 graph: %d nodes, %d directed edges\n\n", g.N(), g.M())

	for _, method := range symcluster.Methods {
		u, err := symcluster.SymmetrizeCtx(ctx, g, method, symcluster.DefaultSymmetrizeOptions())
		if err != nil {
			log.Fatal(err)
		}
		res, err := symcluster.ClusterCtx(ctx, u, symcluster.MLRMCL, symcluster.ClusterOptions{
			Inflation: 2,
			Seed:      1,
		})
		if err != nil {
			log.Fatal(err)
		}
		twinEdge := u.Adj.At(4, 5)
		// Did the clustering recover the three natural groups
		// ({sources}, {targets}, {twins}) as separate clusters?
		recovered := res.K == 3 &&
			res.Assign[0] == res.Assign[1] &&
			res.Assign[2] == res.Assign[3] &&
			res.Assign[4] == res.Assign[5] &&
			res.Assign[0] != res.Assign[4] && res.Assign[2] != res.Assign[4]
		fmt.Printf("%-18s twins-edge weight %.3f  groups recovered: %-5v  (%d clusters)\n",
			method, twinEdge, recovered, res.K)
	}

	fmt.Println("\nA+A' and RandomWalk only reweight existing edges, so the twins")
	fmt.Println("stay unconnected and the graph collapses into one undifferentiated")
	fmt.Println("cluster. Bibliometric and DegreeDiscounted link nodes that share")
	fmt.Println("in-links and out-links, and the three natural groups fall out.")
}
