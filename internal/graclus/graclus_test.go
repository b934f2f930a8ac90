package graclus

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

func blockGraph(rng *rand.Rand, k, sz int, pin, pout float64) (*matrix.CSR, []int) {
	n := k * sz
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i / sz
	}
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pout
			if truth[i] == truth[j] {
				p = pin
			}
			if rng.Float64() < p {
				b.Add(i, j, 1)
				b.Add(j, i, 1)
			}
		}
	}
	return b.Build(), truth
}

func TestClusterValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, _ := blockGraph(rng, 4, 25, 0.4, 0.02)
	res, err := ClusterCtx(context.Background(), adj, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || len(res.Assign) != 100 {
		t.Fatalf("K=%d len=%d", res.K, len(res.Assign))
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 4 {
			t.Fatalf("cluster id %d out of range", a)
		}
	}
}

func TestClusterRecoversBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj, _ := blockGraph(rng, 4, 25, 0.5, 0.01)
	res, err := ClusterCtx(context.Background(), adj, 4, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 4; blk++ {
		counts := map[int]int{}
		for i := blk * 25; i < (blk+1)*25; i++ {
			counts[res.Assign[i]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		if best < 20 {
			t.Fatalf("block %d scattered: %v", blk, counts)
		}
	}
}

func TestClusterNCutBeatsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := blockGraph(rng, 4, 30, 0.4, 0.02)
	res, err := ClusterCtx(context.Background(), adj, 4, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	randAssign := make([]int, adj.Rows)
	for i := range randAssign {
		randAssign[i] = rng.Intn(4)
	}
	if res.NCut >= NCut(adj, randAssign, 4) {
		t.Fatalf("graclus ncut %v not below random %v", res.NCut, NCut(adj, randAssign, 4))
	}
}

func TestClusterK1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj, _ := blockGraph(rng, 2, 10, 0.5, 0.1)
	res, err := ClusterCtx(context.Background(), adj, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("k=1 must be a single cluster")
		}
	}
	if res.NCut != 0 {
		t.Fatalf("k=1 ncut = %v", res.NCut)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := ClusterCtx(context.Background(), matrix.Zero(2, 3), 2, Options{}); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := ClusterCtx(context.Background(), matrix.Zero(3, 3), 0, Options{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := ClusterCtx(context.Background(), matrix.Zero(3, 3), 5, Options{}); err == nil {
		t.Fatal("accepted k>n")
	}
}

func TestClusterEmptyAndEdgeless(t *testing.T) {
	res, err := ClusterCtx(context.Background(), matrix.Zero(0, 0), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 0 {
		t.Fatalf("empty graph assign len %d", len(res.Assign))
	}
	res2, err := ClusterCtx(context.Background(), matrix.Zero(10, 10), 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Assign) != 10 {
		t.Fatalf("assign len %d", len(res2.Assign))
	}
}

func TestClusterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	adj, _ := blockGraph(rng, 3, 20, 0.5, 0.05)
	a, _ := ClusterCtx(context.Background(), adj, 3, Options{Seed: 9})
	b, _ := ClusterCtx(context.Background(), adj, 3, Options{Seed: 9})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestNCutTwoTriangles(t *testing.T) {
	// Two triangles joined by a single unit edge. Perfect split:
	// cut = 1 each side, deg = 2·3+1 = 7 per side → ncut = 2/7.
	b := matrix.NewBuilder(6, 6)
	add := func(u, v int) { b.Add(u, v, 1); b.Add(v, u, 1) }
	add(0, 1)
	add(1, 2)
	add(0, 2)
	add(3, 4)
	add(4, 5)
	add(3, 5)
	add(2, 3)
	adj := b.Build()
	got := NCut(adj, []int{0, 0, 0, 1, 1, 1}, 2)
	if math.Abs(got-2.0/7.0) > 1e-12 {
		t.Fatalf("ncut = %v, want 2/7", got)
	}
}

func TestRefineFindsNaturalSplit(t *testing.T) {
	b := matrix.NewBuilder(6, 6)
	add := func(u, v int) { b.Add(u, v, 1); b.Add(v, u, 1) }
	add(0, 1)
	add(1, 2)
	add(0, 2)
	add(3, 4)
	add(4, 5)
	add(3, 5)
	add(2, 3)
	adj := b.Build()
	bad := []int{0, 1, 0, 1, 0, 1}
	refined := newRefiner(adj.Rows, 2).refine(context.Background(), adj, append([]int(nil), bad...), 20)
	if got := NCut(adj, refined, 2); math.Abs(got-2.0/7.0) > 1e-9 {
		t.Fatalf("refined ncut = %v, want 2/7", got)
	}
}

func TestRefineNeverEmptiesCluster(t *testing.T) {
	// A graph where one cluster wants to absorb everything; the other
	// must keep at least one node.
	b := matrix.NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.Add(i, j, 1)
			b.Add(j, i, 1)
		}
	}
	assign := newRefiner(4, 2).refine(context.Background(), b.Build(), []int{0, 0, 0, 1}, 50)
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("refine emptied a cluster: %v", assign)
	}
}

func TestRefineImprovesMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	adj, _ := blockGraph(rng, 3, 20, 0.5, 0.05)
	assign := make([]int, adj.Rows)
	for i := range assign {
		assign[i] = rng.Intn(3)
	}
	before := NCut(adj, assign, 3)
	after := NCut(adj, newRefiner(adj.Rows, 3).refine(context.Background(), adj, assign, 10), 3)
	if after > before+1e-9 {
		t.Fatalf("refine worsened ncut: %v -> %v", before, after)
	}
}
