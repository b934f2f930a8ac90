package multipartite

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// tripartite builds users→items→tags with k aligned planted
// communities across all three layers.
func tripartite(rng *rand.Rand, k, usersPer, itemsPer, tagsPer int) (*Graph, [][]int) {
	users, items, tags := k*usersPer, k*itemsPer, k*tagsPer
	truth := [][]int{make([]int, users), make([]int, items), make([]int, tags)}
	ui := matrix.NewBuilder(users, items)
	it := matrix.NewBuilder(items, tags)
	for u := 0; u < users; u++ {
		truth[0][u] = u / usersPer
		for i := 0; i < items; i++ {
			p := 0.02
			if u/usersPer == i/itemsPer {
				p = 0.4
			}
			if rng.Float64() < p {
				ui.Add(u, i, 1)
			}
		}
	}
	for i := 0; i < items; i++ {
		truth[1][i] = i / itemsPer
		for t := 0; t < tags; t++ {
			p := 0.02
			if i/itemsPer == t/tagsPer {
				p = 0.4
			}
			if rng.Float64() < p {
				it.Add(i, t, 1)
			}
		}
	}
	for t := 0; t < tags; t++ {
		truth[2][t] = t / tagsPer
	}
	g := &Graph{
		LayerSizes: []int{users, items, tags},
		Relations: []Relation{
			{From: 0, To: 1, B: ui.Build()},
			{From: 1, To: 2, B: it.Build()},
		},
	}
	return g, truth
}

func purity(assign, truth []int) float64 {
	groups := map[int]map[int]int{}
	for i, tc := range truth {
		if groups[tc] == nil {
			groups[tc] = map[int]int{}
		}
		groups[tc][assign[i]]++
	}
	var sum, total float64
	for _, counts := range groups {
		best, n := 0, 0
		for _, c := range counts {
			if c > best {
				best = c
			}
			n += c
		}
		sum += float64(best)
		total += float64(n)
	}
	return sum / total
}

func TestValidate(t *testing.T) {
	g := &Graph{}
	if err := g.Validate(); err == nil {
		t.Fatal("accepted empty graph")
	}
	g = &Graph{LayerSizes: []int{2, 3}, Relations: []Relation{{From: 0, To: 0, B: matrix.Zero(2, 2)}}}
	if err := g.Validate(); err == nil {
		t.Fatal("accepted intra-layer relation")
	}
	g = &Graph{LayerSizes: []int{2, 3}, Relations: []Relation{{From: 0, To: 1, B: matrix.Zero(3, 2)}}}
	if err := g.Validate(); err == nil {
		t.Fatal("accepted dimension mismatch")
	}
	g = &Graph{LayerSizes: []int{2, 3}, Relations: []Relation{{From: 0, To: 5, B: matrix.Zero(2, 3)}}}
	if err := g.Validate(); err == nil {
		t.Fatal("accepted out-of-range layer")
	}
	g = &Graph{LayerSizes: []int{2, 3}, Relations: []Relation{{From: 0, To: 1, B: matrix.Zero(2, 3)}}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayerSimilaritySymmetricAllLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _ := tripartite(rng, 3, 15, 10, 8)
	for l := 0; l < 3; l++ {
		sim, err := LayerSimilarity(context.Background(), g, l, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Rows != g.LayerSizes[l] {
			t.Fatalf("layer %d similarity dims %d", l, sim.Rows)
		}
		if !sim.IsSymmetric(1e-9) {
			t.Fatalf("layer %d similarity not symmetric", l)
		}
	}
}

func TestMiddleLayerAggregatesBothSides(t *testing.T) {
	// The items layer is touched by two relations; its similarity must
	// include contributions from both (strictly more mass than either
	// alone).
	rng := rand.New(rand.NewSource(2))
	g, _ := tripartite(rng, 2, 15, 12, 10)
	both, err := LayerSimilarity(context.Background(), g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gOnlyUI := &Graph{LayerSizes: g.LayerSizes, Relations: g.Relations[:1]}
	onlyUI, err := LayerSimilarity(context.Background(), gOnlyUI, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sumBoth, sumUI float64
	for _, v := range both.Val {
		sumBoth += v
	}
	for _, v := range onlyUI.Val {
		sumUI += v
	}
	if sumBoth <= sumUI {
		t.Fatalf("aggregate %v not above single-relation %v", sumBoth, sumUI)
	}
}

func TestClusterRecoversAllLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, truth := tripartite(rng, 3, 20, 15, 12)
	res, err := Cluster(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		if p := purity(res.Assign[l], truth[l]); p < 0.85 {
			t.Fatalf("layer %d purity %v", l, p)
		}
	}
}

func TestLayerSimilarityErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, _ := tripartite(rng, 2, 5, 5, 5)
	if _, err := LayerSimilarity(context.Background(), g, 7, Options{}); err == nil {
		t.Fatal("accepted out-of-range layer")
	}
	if _, err := LayerSimilarity(context.Background(), g, -1, Options{}); err == nil {
		t.Fatal("accepted negative layer")
	}
	bad := &Graph{LayerSizes: []int{2}, Relations: []Relation{{From: 0, To: 0, B: matrix.Zero(2, 2)}}}
	if _, err := LayerSimilarity(context.Background(), bad, 0, Options{}); err == nil {
		t.Fatal("accepted invalid graph")
	}
}

func TestClusterErrors(t *testing.T) {
	bad := &Graph{LayerSizes: []int{0}}
	if _, err := Cluster(context.Background(), bad, Options{}); err == nil {
		t.Fatal("accepted invalid graph")
	}
	// A layer with no incident relations clusters into singletons.
	g := &Graph{
		LayerSizes: []int{3, 2, 4},
		Relations:  []Relation{{From: 0, To: 1, B: matrix.Zero(3, 2)}},
	}
	res, err := Cluster(context.Background(), g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K[2] != 4 {
		t.Fatalf("isolated layer K = %d, want 4 singletons", res.K[2])
	}
}
