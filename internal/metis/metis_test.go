package metis

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// blockGraph builds k dense blocks of size sz, symmetric.
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

func partSizes(assign []int, k int) []int {
	sizes := make([]int, k)
	for _, a := range assign {
		sizes[a]++
	}
	return sizes
}

func TestPartitionBasicValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, _ := blockGraph(rng, 4, 25, 0.4, 0.02)
	res, err := PartitionCtx(context.Background(), adj, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || len(res.Assign) != 100 {
		t.Fatalf("K=%d len=%d", res.K, len(res.Assign))
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 4 {
			t.Fatalf("part id %d out of range", a)
		}
	}
	sizes := partSizes(res.Assign, 4)
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d empty: %v", p, sizes)
		}
	}
}

func TestPartitionRecoverseBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj, _ := blockGraph(rng, 4, 25, 0.5, 0.01)
	res, err := PartitionCtx(context.Background(), adj, 4, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every true block should be dominated by a single part.
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

func TestPartitionBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	adj, _ := blockGraph(rng, 1, 200, 0.05, 0) // one homogeneous blob
	res, err := PartitionCtx(context.Background(), adj, 4, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sizes := partSizes(res.Assign, 4)
	for p, s := range sizes {
		if s < 25 || s > 85 {
			t.Fatalf("part %d badly unbalanced: %v", p, sizes)
		}
	}
}

func TestPartitionCutBeatsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj, _ := blockGraph(rng, 4, 30, 0.4, 0.02)
	res, err := PartitionCtx(context.Background(), adj, 4, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	randAssign := make([]int, adj.Rows)
	for i := range randAssign {
		randAssign[i] = rng.Intn(4)
	}
	if got := EdgeCut(adj, res.Assign); got >= EdgeCut(adj, randAssign) {
		t.Fatalf("partitioner cut %v not below random cut %v", got, EdgeCut(adj, randAssign))
	}
}

func TestPartitionK1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	adj, _ := blockGraph(rng, 2, 10, 0.5, 0.1)
	res, err := PartitionCtx(context.Background(), adj, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
	if got := EdgeCut(adj, res.Assign); got != 0 {
		t.Fatalf("k=1 cut = %v", got)
	}
}

func TestPartitionOddK(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	adj, _ := blockGraph(rng, 5, 20, 0.5, 0.02)
	res, err := PartitionCtx(context.Background(), adj, 5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sizes := partSizes(res.Assign, 5)
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d empty with odd k: %v", p, sizes)
		}
	}
}

func TestPartitionKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	adj, _ := blockGraph(rng, 1, 8, 0.8, 0)
	res, err := PartitionCtx(context.Background(), adj, 8, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sizes := partSizes(res.Assign, 8)
	for p, s := range sizes {
		if s != 1 {
			t.Fatalf("k=n: part %d has %d nodes: %v", p, s, sizes)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := PartitionCtx(context.Background(), matrix.Zero(2, 3), 2, Options{}); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := PartitionCtx(context.Background(), matrix.Zero(3, 3), 0, Options{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := PartitionCtx(context.Background(), matrix.Zero(3, 3), 4, Options{}); err == nil {
		t.Fatal("accepted k>n")
	}
}

func TestPartitionEdgelessGraph(t *testing.T) {
	res, err := PartitionCtx(context.Background(), matrix.Zero(10, 10), 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := partSizes(res.Assign, 3)
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d empty on edgeless graph: %v", p, sizes)
		}
	}
	if got := EdgeCut(matrix.Zero(10, 10), res.Assign); got != 0 {
		t.Fatalf("edgeless cut = %v", got)
	}
}

func TestPartitionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	adj, _ := blockGraph(rng, 3, 20, 0.5, 0.05)
	a, _ := PartitionCtx(context.Background(), adj, 3, Options{Seed: 15})
	b, _ := PartitionCtx(context.Background(), adj, 3, Options{Seed: 15})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestEdgeCut(t *testing.T) {
	adj := matrix.FromDense([][]float64{
		{0, 2, 1},
		{2, 0, 0},
		{1, 0, 0},
	})
	// Split {0,1} vs {2}: only edge (0,2) weight 1 crosses.
	if got := EdgeCut(adj, []int{0, 0, 1}); got != 1 {
		t.Fatalf("cut = %v, want 1", got)
	}
	if got := EdgeCut(adj, []int{0, 0, 0}); got != 0 {
		t.Fatalf("uncut = %v, want 0", got)
	}
}

func TestFMRefineImprovesCut(t *testing.T) {
	// Two triangles joined by one edge, split badly on purpose.
	b := matrix.NewBuilder(6, 6)
	add := func(u, v int, w float64) { b.Add(u, v, w); b.Add(v, u, w) }
	add(0, 1, 1)
	add(1, 2, 1)
	add(0, 2, 1)
	add(3, 4, 1)
	add(4, 5, 1)
	add(3, 5, 1)
	add(2, 3, 0.5)
	adj := b.Build()
	bad := []int{0, 1, 0, 1, 0, 1} // cut = 5.5... compute: edges crossing
	w := []float64{1, 1, 1, 1, 1, 1}
	refined := sizedWorkspace(adj.Rows).fmRefine(adj, w, append([]int(nil), bad...), 0.5)
	if EdgeCut(adj, refined) > EdgeCut(adj, bad) {
		t.Fatalf("FM worsened cut: %v -> %v", EdgeCut(adj, bad), EdgeCut(adj, refined))
	}
	if EdgeCut(adj, refined) > 0.5 {
		t.Fatalf("FM failed to find the natural split, cut %v", EdgeCut(adj, refined))
	}
}
