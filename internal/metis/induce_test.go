package metis

import (
	"math/rand"
	"slices"
	"testing"

	"symcluster/internal/matrix"
)

func TestInduceSubgraph(t *testing.T) {
	full := matrix.FromDense([][]float64{
		{0, 1, 2, 0},
		{1, 0, 0, 3},
		{2, 0, 0, 4},
		{0, 3, 4, 0},
	})
	nodes := []int32{0, 2, 3}
	sub := sizedWorkspace(full.Rows).induce(full, nodes)
	if sub.Rows != 3 {
		t.Fatalf("sub dims %d", sub.Rows)
	}
	// Local ids: 0→0, 2→1, 3→2. Edges: (0,2)=2 → (0,1); (2,3)=4 → (1,2).
	if sub.At(0, 1) != 2 || sub.At(1, 0) != 2 {
		t.Fatalf("edge (0,2) lost: %v", sub.ToDense())
	}
	if sub.At(1, 2) != 4 || sub.At(2, 1) != 4 {
		t.Fatalf("edge (2,3) lost: %v", sub.ToDense())
	}
	// Edge (0,1) of the full graph must vanish (node 1 not included).
	if sub.At(0, 2) != 0 {
		t.Fatalf("phantom edge: %v", sub.ToDense())
	}
}

func TestInduceDropsSelfLoops(t *testing.T) {
	full := matrix.FromDense([][]float64{
		{7, 1},
		{1, 0},
	})
	sub := sizedWorkspace(full.Rows).induce(full, []int32{0, 1})
	if sub == full || sub.At(0, 0) != 0 {
		t.Fatal("self-loop survived induce")
	}
}

// TestInduceWholePlainGraphIsTheGraph: every node of a graph with no
// self-loop and no stored zero induces the graph itself — the pointer a
// hierarchy memo is bound to — and anything less, or a graph with either,
// a copy.
func TestInduceWholePlainGraphIsTheGraph(t *testing.T) {
	plainG := matrix.FromDense([][]float64{
		{0, 1, 2},
		{1, 0, 3},
		{2, 3, 0},
	})
	zero := &matrix.CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{1, 0}, Val: []float64{0, 0}}
	ws := sizedWorkspace(3)
	for _, tc := range []struct {
		full  *matrix.CSR
		nodes []int32
		same  bool
	}{
		{plainG, []int32{0, 1, 2}, true},
		{plainG, []int32{0, 2}, false},
		{plainG, []int32{0, 2, 1}, false},
		{matrix.FromDense([][]float64{{1, 1}, {1, 0}}), []int32{0, 1}, false},
		{zero, []int32{0, 1}, false},
	} {
		got := ws.induce(tc.full, tc.nodes)
		if (got == tc.full) != tc.same {
			t.Fatalf("nodes %v of\n%v: returned the graph itself %v, want %v", tc.nodes, tc.full, got == tc.full, tc.same)
		}
		if want := induceByBuilder(tc.full, tc.nodes); !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("nodes %v: induced\n%v\nwant\n%v", tc.nodes, got, want)
		}
	}
}

// induceByBuilder is induce as it stood on a map and a Builder.
func induceByBuilder(full *matrix.CSR, nodes []int32) *matrix.CSR {
	idx := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		idx[v] = int32(i)
	}
	b := matrix.NewBuilder(len(nodes), len(nodes))
	for i, v := range nodes {
		cols, vals := full.Row(int(v))
		for t, c := range cols {
			if j, ok := idx[c]; ok && int(j) != i {
				b.Add(i, int(j), vals[t])
			}
		}
	}
	return b.Build()
}

// TestInduceMatchesBuilder: rows written straight into the CSR equal
// the Builder's, on node lists in increasing order and on ones whose
// tail is out of order (what rebalancing leaves, and the only case that
// sorts), over a graph with self-loops and stored zeros; one scratch
// serves every call, so its index must come back clean.
func TestInduceMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 60
	full := &matrix.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				full.ColIdx = append(full.ColIdx, int32(j))
				full.Val = append(full.Val, float64(rng.Intn(4))) // a quarter are stored zeros
			}
		}
		full.RowPtr[i+1] = int64(len(full.ColIdx))
	}
	ws := sizedWorkspace(n)
	for trial := 0; trial < 100; trial++ {
		var nodes []int32
		for v := int32(0); v < n; v++ {
			if rng.Intn(2) == 0 {
				nodes = append(nodes, v)
			}
		}
		if tail := rng.Intn(len(nodes) + 1); trial%2 == 1 {
			rng.Shuffle(tail, func(a, b int) {
				a, b = len(nodes)-1-a, len(nodes)-1-b
				nodes[a], nodes[b] = nodes[b], nodes[a]
			})
		}
		got := ws.induce(full, nodes)
		want := induceByBuilder(full, nodes)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("trial %d (nodes %v): induced\n%v\nwant\n%v", trial, nodes, got, want)
		}
	}
}

func TestGrowRegionReachesTarget(t *testing.T) {
	b := matrix.NewBuilder(10, 10)
	for i := 0; i < 9; i++ {
		b.Add(i, i+1, 1)
		b.Add(i+1, i, 1)
	}
	adj := b.Build()
	w := make([]float64, 10)
	for i := range w {
		w[i] = 1
	}
	for seed := int64(0); seed < 5; seed++ {
		side := sizedWorkspace(adj.Rows).growRegion(adj, w, 5, newRand(seed), nil)
		count := 0
		for _, s := range side {
			if s == 0 {
				count++
			}
		}
		if count < 5 {
			t.Fatalf("seed %d: region grew to %d, want >= 5", seed, count)
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sizedWorkspace is a fresh workspace ready for an n-node graph.
func sizedWorkspace(n int) *workspace {
	return &workspace{local: make([]int32, n), locked: make([]bool, n)}
}
