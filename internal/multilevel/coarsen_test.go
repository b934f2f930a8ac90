package multilevel

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// ring builds an undirected n-cycle with unit weights.
func ring(n int) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.Add(i, j, 1)
		b.Add(j, i, 1)
	}
	return b.Build()
}

// randomSym builds a random symmetric adjacency.
func randomSym(rng *rand.Rand, n int, avgDeg float64) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	edges := int(float64(n) * avgDeg / 2)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := 1 + rng.Float64()
		b.Add(u, v, w)
		b.Add(v, u, w)
	}
	return b.Build()
}

func TestCoarsenShrinks(t *testing.T) {
	h, err := CoarsenCtx(context.Background(), ring(256), Options{MinNodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 2 {
		t.Fatal("no coarsening happened")
	}
	for l := 1; l < h.Depth(); l++ {
		if h.Levels[l].Adj.Rows >= h.Levels[l-1].Adj.Rows {
			t.Fatalf("level %d did not shrink: %d >= %d", l, h.Levels[l].Adj.Rows, h.Levels[l-1].Adj.Rows)
		}
	}
	if h.Coarsest().Adj.Rows > 32 {
		t.Fatalf("coarsest level still has %d nodes", h.Coarsest().Adj.Rows)
	}
}

func TestCoarsenPreservesTotalNodeWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj := randomSym(rng, 300, 6)
	h, err := CoarsenCtx(context.Background(), adj, Options{MinNodes: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for l, lev := range h.Levels {
		var sum float64
		for _, w := range lev.NodeWeight {
			sum += w
		}
		if sum != 300 {
			t.Fatalf("level %d total node weight %v, want 300", l, sum)
		}
	}
}

func TestCoarsenPreservesTotalEdgeWeight(t *testing.T) {
	// Contraction folds edge weight into diagonals but never loses it:
	// the total of all entries (including diagonal) is invariant.
	rng := rand.New(rand.NewSource(4))
	adj := randomSym(rng, 200, 5)
	var total float64
	for _, v := range adj.Val {
		total += v
	}
	h, err := CoarsenCtx(context.Background(), adj, Options{MinNodes: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for l, lev := range h.Levels {
		var sum float64
		for _, v := range lev.Adj.Val {
			sum += v
		}
		if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("level %d total edge weight %v, want %v", l, sum, total)
		}
	}
}

func TestCoarsenKeepsSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	adj := randomSym(rng, 150, 4)
	h, err := CoarsenCtx(context.Background(), adj, Options{MinNodes: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for l, lev := range h.Levels {
		if !lev.Adj.IsSymmetric(1e-9) {
			t.Fatalf("level %d adjacency not symmetric", l)
		}
	}
}

func TestCoarsenRespectsMinNodes(t *testing.T) {
	h, err := CoarsenCtx(context.Background(), ring(1000), Options{MinNodes: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The level *above* the last must exceed MinNodes.
	if h.Depth() >= 2 {
		prev := h.Levels[h.Depth()-2]
		if prev.Adj.Rows <= 200 {
			t.Fatalf("coarsening continued past MinNodes: previous level %d nodes", prev.Adj.Rows)
		}
	}
}

func TestCoarsenRejectsNonSquare(t *testing.T) {
	if _, err := CoarsenCtx(context.Background(), matrix.Zero(2, 3), Options{}); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestCoarsenEdgelessGraphStops(t *testing.T) {
	// No edges: matching leaves everything unmatched, contraction
	// cannot shrink, and coarsening must stop rather than loop.
	h, err := CoarsenCtx(context.Background(), matrix.Zero(50, 50), Options{MinNodes: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 1 {
		t.Fatalf("edgeless graph coarsened to depth %d", h.Depth())
	}
}

func TestProjectRoundTrip(t *testing.T) {
	h, err := CoarsenCtx(context.Background(), ring(64), Options{MinNodes: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 2 {
		t.Fatal("need at least two levels")
	}
	coarseN := h.Coarsest().Adj.Rows
	assign := make([]int, coarseN)
	for i := range assign {
		assign[i] = i % 3
	}
	fine := assign
	for level := h.Depth() - 1; level >= 1; level-- {
		fine = h.Project(level, fine, nil)
	}
	if len(fine) != 64 {
		t.Fatalf("projected length %d", len(fine))
	}
	// Every fine node's cluster must equal its coarse ancestor's.
	ancestor := make([]int, 64)
	for i := range ancestor {
		ancestor[i] = i
	}
	for l := 1; l < h.Depth(); l++ {
		m := h.Levels[l].Map
		for i := range ancestor {
			ancestor[i] = int(m[ancestor[i]])
		}
	}
	for i := range fine {
		if fine[i] != assign[ancestor[i]] {
			t.Fatalf("node %d: projected %d, ancestor says %d", i, fine[i], assign[ancestor[i]])
		}
	}
}

func TestProjectPanicsOnBadLevel(t *testing.T) {
	h, _ := CoarsenCtx(context.Background(), ring(32), Options{MinNodes: 4, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Project(0, nil, nil)
}

func TestHeavyEdgeMatchingIsValidMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	adj := randomSym(rng, 120, 5)
	for seed := int64(0); seed < 5; seed++ {
		m := new(Scratch).heavyEdgeMatching(adj, rand.New(rand.NewSource(seed)))
		for u := range m {
			v := int(m[u])
			if v < 0 || v >= len(m) {
				t.Fatalf("seed %d: match[%d] = %d out of range", seed, u, v)
			}
			if int(m[v]) != u {
				t.Fatalf("seed %d: matching not symmetric at %d↔%d", seed, u, v)
			}
			if v != u && adj.At(u, v) == 0 {
				t.Fatalf("seed %d: matched non-adjacent pair %d,%d", seed, u, v)
			}
		}
	}
}

func TestHeavyEdgeMatchingPicksHeaviestNeighbour(t *testing.T) {
	// A star where the centre's heaviest spoke must win whenever the
	// centre is visited first. With leaves having no other edges, any
	// visit order still matches the centre to SOME neighbour; when the
	// centre chooses, it must choose weight 9.
	b := matrix.NewBuilder(4, 4)
	add := func(u, v int, w float64) { b.Add(u, v, w); b.Add(v, u, w) }
	add(0, 1, 1)
	add(0, 2, 9)
	add(0, 3, 1)
	adj := b.Build()
	sawCentreChoice := false
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := new(Scratch).heavyEdgeMatching(adj, rng)
		// If the centre was visited before any leaf, all neighbours were
		// unmatched and it must have picked node 2.
		if m[0] != 0 && m[1] == 1 && m[3] == 3 {
			sawCentreChoice = true
			if m[0] != 2 {
				t.Fatalf("seed %d: centre chose %d, want heaviest neighbour 2", seed, m[0])
			}
		}
	}
	if !sawCentreChoice {
		t.Skip("no seed visited the centre first; widen the seed range")
	}
}
