package multipartite

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// plantedBipartite builds k planted co-clusters: rows of block i link
// (with probability pin) to columns of block i, and with pout to the
// others.
func plantedBipartite(rng *rand.Rand, k, rowsPer, colsPer int, pin, pout float64) (*matrix.CSR, []int, []int) {
	rows, cols := k*rowsPer, k*colsPer
	rowTruth, colTruth := make([]int, rows), make([]int, cols)
	b := matrix.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		rowTruth[i] = i / rowsPer
		for j := 0; j < cols; j++ {
			colTruth[j] = j / colsPer
			p := pout
			if rowTruth[i] == j/colsPer {
				p = pin
			}
			if rng.Float64() < p {
				b.Add(i, j, 1)
			}
		}
	}
	return b.Build(), rowTruth, colTruth
}

// userItems is examples/bipartite's interaction graph: four taste
// communities of 50 users, each with its own 30-item catalogue, plus
// five blockbusters everyone interacts with.
func userItems() *matrix.CSR {
	const communities, usersPer, itemsPer, blockbusters = 4, 50, 30, 5
	rng := rand.New(rand.NewSource(42))
	users, items := communities*usersPer, communities*itemsPer+blockbusters
	b := matrix.NewBuilder(users, items)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			p := 0.01
			switch {
			case i >= communities*itemsPer:
				p = 0.5
			case i/itemsPer == u/usersPer:
				p = 0.3
			}
			if rng.Float64() < p {
				b.Add(u, i, 1)
			}
		}
	}
	return b.Build()
}

// twoLayer is the bipartite graph with biadjacency b: layers {rows,
// cols} and the one relation 0→1.
func twoLayer(b *matrix.CSR) *Graph {
	return &Graph{LayerSizes: []int{b.Rows, b.Cols}, Relations: []Relation{{From: 0, To: 1, B: b}}}
}

type twoLayerCase struct {
	name string
	b    *matrix.CSR
	seed int64
}

// twoLayerCases are the graphs the deleted internal/bipartite was tested
// on, the root package's co-clustering test graph and the example's.
func twoLayerCases() []twoLayerCase {
	planted := func(seed int64, k, rowsPer, colsPer int, pin, pout float64) *matrix.CSR {
		b, _, _ := plantedBipartite(rand.New(rand.NewSource(seed)), k, rowsPer, colsPer, pin, pout)
		return b
	}
	return []twoLayerCase{
		{"planted1", planted(1, 3, 15, 10, 0.5, 0.02), 1},
		{"planted2", planted(2, 2, 20, 15, 0.6, 0.02), 2},
		{"planted3", planted(3, 4, 20, 15, 0.5, 0.01), 3},
		{"planted4", planted(4, 3, 20, 15, 0.6, 0.01), 4},
		{"edgeless-column", matrix.FromDense([][]float64{{1, 0}, {1, 0}}), 1},
		{"root", planted(9, 2, 20, 15, 0.5, 0.02), 9},
		{"example", userItems(), 42},
	}
}

func hashCSR(h hash.Hash64, m *matrix.CSR) {
	var buf [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	put(uint64(m.Rows))
	for _, p := range m.RowPtr {
		put(uint64(p))
	}
	for k, c := range m.ColIdx {
		put(uint64(c))
		put(math.Float64bits(m.Val[k]))
	}
}

func hashAssign(h hash.Hash64, assign []int, k int) {
	var buf [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	put(uint64(k))
	for _, a := range assign {
		put(uint64(a))
	}
}

// TestTwoLayerIsBipartite: a bipartite graph is the two-layer
// multipartite graph. internal/bipartite, deleted in PR 29, computed
// d_r^(−α)·B·d_c^(−β·0.5) where LayerSimilarity computes
// d_r^(−α)·B·d_c^(−β/2) — one float — and the same fused product and
// MCL options; at e302f9b a copy of this test asserted LayerSimilarity
// of layers 0 and 1 bitwise equal to its Row/ColSimilarity and Cluster's
// assignments equal to its CoCluster's on every case here, and the
// digests below are what both gave.
func TestTwoLayerIsBipartite(t *testing.T) {
	const wantSim, wantAssign uint64 = 0x17f0da03629f9a4d, 0x8be19485802d20c6
	ctx := context.Background()
	simSum, assignSum := fnv.New64a(), fnv.New64a()
	for _, c := range twoLayerCases() {
		g := twoLayer(c.b)
		for _, th := range []float64{0, 0.02} {
			for layer := 0; layer < 2; layer++ {
				sim, err := LayerSimilarity(ctx, g, layer, Options{Threshold: th})
				if err != nil {
					t.Fatal(err)
				}
				hashCSR(simSum, sim)
			}
		}
		res, err := Cluster(ctx, g, Options{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		hashAssign(assignSum, res.Assign[0], res.K[0])
		hashAssign(assignSum, res.Assign[1], res.K[1])
	}
	if got := simSum.Sum64(); got != wantSim {
		t.Errorf("similarity digest %#016x, want %#016x", got, wantSim)
	}
	if got := assignSum.Sum64(); got != wantAssign {
		t.Errorf("assignment digest %#016x, want %#016x", got, wantAssign)
	}
}

// TestTwoLayerSimilarityFavoursSameBlock: on either side, rows of one
// planted block are more alike than rows of two (the deleted package's
// row-similarity test, held on both layers).
func TestTwoLayerSimilarityFavoursSameBlock(t *testing.T) {
	b, rowTruth, colTruth := plantedBipartite(rand.New(rand.NewSource(2)), 2, 20, 15, 0.6, 0.02)
	for layer, truth := range [][]int{rowTruth, colTruth} {
		sim, err := LayerSimilarity(context.Background(), twoLayer(b), layer, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var same, cross float64
		var sameN, crossN int
		for i := 0; i < sim.Rows; i++ {
			cols, vals := sim.Row(i)
			for k, c := range cols {
				if truth[i] == truth[c] {
					same, sameN = same+vals[k], sameN+1
				} else {
					cross, crossN = cross+vals[k], crossN+1
				}
			}
		}
		sameMean, crossMean := same/float64(max(sameN, 1)), cross/float64(max(crossN, 1))
		if sameN == 0 || sameMean <= crossMean {
			t.Fatalf("layer %d: same-block similarity %v not above cross-block %v", layer, sameMean, crossMean)
		}
	}
}

// TestTwoLayerRecoversBlocks: both sides of planted co-clusters come
// back (the deleted package's recovery test).
func TestTwoLayerRecoversBlocks(t *testing.T) {
	b, rowTruth, colTruth := plantedBipartite(rand.New(rand.NewSource(3)), 4, 20, 15, 0.5, 0.01)
	res, err := Cluster(context.Background(), twoLayer(b), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for layer, truth := range [][]int{rowTruth, colTruth} {
		if p := purity(res.Assign[layer], truth); p < 0.9 {
			t.Fatalf("layer %d purity %v", layer, p)
		}
	}
}
