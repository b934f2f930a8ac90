// Socialnet: scalability on follower-style power-law graphs (the
// paper's Flickr/LiveJournal scenario) — how symmetrization choice
// changes clustering speed (Figures 8–9).
//
// Run with: go run ./examples/socialnet
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"symcluster"
)

func main() {
	data, err := symcluster.GenerateKronecker(symcluster.KroneckerOptions{
		Scale:       13, // 8192 users
		EdgeFactor:  12,
		Reciprocity: 0.65,
		Seed:        5,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := data.Graph
	ctx := context.Background()
	fmt.Printf("follower graph: %d users, %d follows, %.1f%% mutual\n\n",
		g.N(), g.M(), 100*g.SymmetricLinkFraction())

	// PageRank sanity: the most-followed users dominate the stationary
	// distribution; those hubs are exactly what degree-discounting
	// protects the similarity graph from.
	pr, err := symcluster.PageRankCtx(ctx, g, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	top, topRank := 0, 0.0
	for i, r := range pr {
		if r > topRank {
			top, topRank = i, r
		}
	}
	fmt.Printf("top PageRank user: %s with %.4f of the walk mass\n\n", g.Label(top), topRank)

	fmt.Printf("%-18s %12s %12s %12s %10s\n", "Symmetrization", "Sym secs", "Edges", "Clusters", "MCL secs")
	for _, method := range []symcluster.SymMethod{symcluster.AAT, symcluster.RandomWalk, symcluster.DegreeDiscounted} {
		opt := symcluster.DefaultSymmetrizeOptions()
		if method == symcluster.DegreeDiscounted {
			opt.Threshold = 0.05
		}
		start := time.Now()
		u, err := symcluster.SymmetrizeCtx(ctx, g, method, opt)
		if err != nil {
			log.Fatal(err)
		}
		symSecs := time.Since(start).Seconds()

		start = time.Now()
		res, err := symcluster.ClusterCtx(ctx, u, symcluster.MLRMCL, symcluster.ClusterOptions{
			Inflation: 1.5,
			Seed:      5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %12.2f %12d %12d %10.2f\n",
			method, symSecs, u.M(), res.K, time.Since(start).Seconds())
	}
	fmt.Println("\nThe degree-discounted graph is hub-free and, after pruning, sparser")
	fmt.Println("than A+A', so the same clustering algorithm covers it faster —")
	fmt.Println("the effect behind the paper's Figures 8 and 9.")
}
