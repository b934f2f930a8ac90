package mcl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// blockGraph builds k dense blocks of size sz with intra-block edge
// probability pin and inter-block probability pout, symmetric.
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

// agreeFraction returns the fraction of node pairs on which two
// clusterings agree (same-cluster vs different-cluster), a simple Rand
// index.
func agreeFraction(a, b []int) float64 {
	n := len(a)
	agree, total := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}

func TestClusterRecoverBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, truth := blockGraph(rng, 4, 25, 0.4, 0.01)
	res, err := ClusterCtx(context.Background(), adj, Options{Inflation: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 3 || res.K > 8 {
		t.Fatalf("K = %d, want about 4", res.K)
	}
	if ri := agreeFraction(res.Assign, truth); ri < 0.9 {
		t.Fatalf("Rand index %v too low", ri)
	}
}

func TestClusterAssignInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj, _ := blockGraph(rng, 3, 20, 0.5, 0.02)
	res, err := ClusterCtx(context.Background(), adj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != adj.Rows {
		t.Fatalf("assign length %d", len(res.Assign))
	}
	seen := make([]bool, res.K)
	for _, c := range res.Assign {
		if c < 0 || c >= res.K {
			t.Fatalf("cluster id %d outside [0,%d)", c, res.K)
		}
		seen[c] = true
	}
	for id, s := range seen {
		if !s {
			t.Fatalf("cluster id %d unused", id)
		}
	}
}

func TestInflationControlsGranularity(t *testing.T) {
	// Higher inflation must produce at least as many clusters (in
	// practice strictly more on a hierarchical graph).
	rng := rand.New(rand.NewSource(3))
	adj, _ := blockGraph(rng, 6, 15, 0.5, 0.05)
	low, err := ClusterCtx(context.Background(), adj, Options{Inflation: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	high, err := ClusterCtx(context.Background(), adj, Options{Inflation: 2.8})
	if err != nil {
		t.Fatal(err)
	}
	if low.K > high.K {
		t.Fatalf("inflation 1.3 gave %d clusters, 2.8 gave %d; want monotone", low.K, high.K)
	}
}

func TestClusterDisconnectedComponents(t *testing.T) {
	// Two disconnected triangles must never share a cluster.
	b := matrix.NewBuilder(6, 6)
	tri := func(o int) {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				b.Add(o+i, o+j, 1)
				b.Add(o+j, o+i, 1)
			}
		}
	}
	tri(0)
	tri(3)
	res, err := ClusterCtx(context.Background(), b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d, want 2", res.K)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[0] != res.Assign[2] {
		t.Fatalf("first triangle split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] || res.Assign[3] != res.Assign[5] {
		t.Fatalf("second triangle split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Fatal("disconnected triangles merged")
	}
}

func TestClusterIsolatedNodes(t *testing.T) {
	res, err := ClusterCtx(context.Background(), matrix.Zero(5, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 {
		t.Fatalf("K = %d, want 5 singletons", res.K)
	}
}

func TestClusterEmptyGraph(t *testing.T) {
	res, err := ClusterCtx(context.Background(), matrix.Zero(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 || len(res.Assign) != 0 {
		t.Fatalf("empty graph: K=%d len=%d", res.K, len(res.Assign))
	}
}

func TestClusterRejectsNonSquare(t *testing.T) {
	if _, err := ClusterCtx(context.Background(), matrix.Zero(2, 3), Options{}); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestMultilevelMatchesFlatQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj, truth := blockGraph(rng, 5, 30, 0.4, 0.01)
	flat, err := ClusterCtx(context.Background(), adj, Options{Inflation: 2})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := ClusterCtx(context.Background(), adj, Options{Inflation: 2, Multilevel: true, CoarsenTo: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	flatRI := agreeFraction(flat.Assign, truth)
	mlRI := agreeFraction(ml.Assign, truth)
	if mlRI < flatRI-0.1 {
		t.Fatalf("multilevel quality %v far below flat %v", mlRI, flatRI)
	}
	if mlRI < 0.85 {
		t.Fatalf("multilevel Rand index %v too low", mlRI)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := blockGraph(rng, 3, 20, 0.5, 0.02)
	a, err := ClusterCtx(context.Background(), adj, Options{Multilevel: true, CoarsenTo: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterCtx(context.Background(), adj, Options{Multilevel: true, CoarsenTo: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestRegularizerColumnStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	adj, _ := blockGraph(rng, 2, 10, 0.5, 0.1)
	mgt := regularizer(adj)
	// mgt rows are M_G columns; each must sum to 1.
	sums := mgt.RowSums()
	for i, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", i, s)
		}
	}
}

func TestInflateRowsSharpens(t *testing.T) {
	m := matrix.FromDense([][]float64{{0.6, 0.4}})
	inflateRows(m, 2)
	// 0.36 and 0.16 renormalised: 0.6923..., 0.3077...
	if !(m.At(0, 0) > 0.69 && m.At(0, 0) < 0.70) {
		t.Fatalf("inflated value %v", m.At(0, 0))
	}
	if math.Abs(m.At(0, 0)+m.At(0, 1)-1) > 1e-12 {
		t.Fatal("row no longer stochastic after inflation")
	}
}

func TestPrunePerRowKeepsRowMax(t *testing.T) {
	m := matrix.FromDense([][]float64{{0.001, 0.002}})
	p := prunePerRow(m, 0.5, 10)
	if p.RowNNZ(0) != 1 || p.At(0, 1) != 0.002 {
		t.Fatalf("row max not preserved: %v", p.ToDense())
	}
}

func TestPrunePerRowCapsEntries(t *testing.T) {
	m := matrix.FromDense([][]float64{{5, 4, 3, 2, 1}})
	p := prunePerRow(m, 0, 2)
	if p.RowNNZ(0) != 2 {
		t.Fatalf("kept %d entries, want 2", p.RowNNZ(0))
	}
	if p.At(0, 0) != 5 || p.At(0, 1) != 4 {
		t.Fatalf("wrong survivors: %v", p.ToDense())
	}
}

func TestExtractClustersCycleHandling(t *testing.T) {
	// Flow where 0→1 and 1→0 (a 2-cycle of attractors) plus 2→0: all
	// three must land in one cluster.
	f := matrix.FromDense([][]float64{
		{0.1, 0.9, 0},
		{0.9, 0.1, 0},
		{0.8, 0.2, 0},
	})
	assign, k := extractClusters(f)
	if k != 1 {
		t.Fatalf("K = %d, want 1", k)
	}
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("cycle not collapsed: %v", assign)
	}
}
