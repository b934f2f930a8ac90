// Bipartite: co-cluster a user-item interaction graph with the
// degree-discounted similarity — the paper's §6 future-work extension.
// Users never link to users and items never link to items, so EVERY
// cluster here is of the Figure-1 kind: visible only through shared
// links. A bipartite graph is the two-layer multipartite graph: layers
// {users, items} and the one relation users → items.
//
// Run with: go run ./examples/bipartite
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"symcluster"
)

func main() {
	// Synthetic user-item data: 4 taste communities, each preferring
	// its own item catalogue, plus a few blockbuster items everyone
	// interacts with (the bipartite analogue of hub pages).
	const (
		communities  = 4
		usersPer     = 50
		itemsPer     = 30
		blockbusters = 5
	)
	rng := rand.New(rand.NewSource(42))
	users := communities * usersPer
	items := communities*itemsPer + blockbusters
	b := symcluster.NewMatrixBuilder(users, items)
	userTruth, itemTruth := make([]int, users), make([]int, items)
	for u := 0; u < users; u++ {
		comm := u / usersPer
		userTruth[u] = comm
		for i := 0; i < items; i++ {
			var p float64
			switch {
			case i >= communities*itemsPer:
				p = 0.5 // blockbusters: everyone watches
			case i/itemsPer == comm:
				p = 0.3 // own catalogue
			default:
				p = 0.01
			}
			if rng.Float64() < p {
				b.Add(u, i, 1)
			}
		}
	}
	for i := range itemTruth {
		itemTruth[i] = min(i/itemsPer, communities) // blockbusters are a fifth group
	}
	biadj := b.Build()
	fmt.Printf("interaction graph: %d users x %d items, %d interactions\n\n",
		users, items, biadj.NNZ())

	g := &symcluster.MultipartiteGraph{
		LayerSizes: []int{users, items},
		Relations:  []symcluster.MultipartiteRelation{{From: 0, To: 1, B: biadj}},
	}
	res, err := symcluster.ClusterMultipartiteCtx(context.Background(), g, symcluster.MultipartiteOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d user clusters and %d item clusters\n", res.K[0], res.K[1])

	// Recovery per layer: each planted group should map to one dominant
	// cluster of its layer.
	for layer, truth := range [][]int{userTruth, itemTruth} {
		name := []string{"users", "items"}[layer]
		held := recovery(name, res.Assign[layer], truth)
		fmt.Printf("%s: %.1f%% in their group's dominant cluster\n\n", name, 100*held)
	}
	fmt.Println("Degree-discounting keeps the blockbuster items from gluing all")
	fmt.Println("user communities into one cluster — the same hub fix as on the web graph.")
}

// recovery prints, per planted group, how many members share its
// dominant cluster, and returns the share of all nodes that do.
func recovery(layer string, assign, truth []int) float64 {
	groups := map[int]map[int]int{}
	sizes := map[int]int{}
	for i, t := range truth {
		if groups[t] == nil {
			groups[t] = map[int]int{}
		}
		groups[t][assign[i]]++
		sizes[t]++
	}
	held := 0
	for t := 0; t < len(groups); t++ {
		best, bestN := -1, 0
		for c, n := range groups[t] {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		fmt.Printf("%s group %d: %2d/%d in cluster %d\n", layer, t, bestN, sizes[t], best)
		held += bestN
	}
	return float64(held) / float64(len(truth))
}
