package multilevel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"symcluster/internal/matrix"
)

// contractFineOrder is the contraction as it stood before it walked
// coarse rows: every fine row in index order through a Builder, whose
// stable scatter regroups the triplets by coarse row.
func contractFineOrder(cur *Level, coarseID []int32, cn int) *matrix.CSR {
	b := matrix.NewBuilder(cn, cn)
	for i := 0; i < cur.Adj.Rows; i++ {
		cols, vals := cur.Adj.Row(i)
		for k, c := range cols {
			b.Add(int(coarseID[i]), int(coarseID[c]), vals[k])
		}
	}
	return b.Build()
}

// TestContractMatchesFineOrder: the coarse adjacency is, bit for bit,
// what the fine-row walk built — on symmetric graphs whose weights do
// not add exactly, with self-loops, with pairs of edges that cancel to
// zero once merged, and dense enough that coarse rows hold several times
// the 12 entries below which the per-row sort is stable and that three-
// and four-way merges (whose sum depends on the order the sort leaves
// equal columns in) are the rule. Matchings are random pairings, which
// merge what heavy-edge matching would not, and the level's own.
func TestContractMatchesFineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	weights := []float64{0.1, 0.2, 0.3, 0.7, 1.0 / 3, 1e16, -1e16, -0.1, 1}
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(100)
		b := matrix.NewBuilder(n, n)
		for e := n * (5 + rng.Intn(20)); e > 0; e-- {
			i, j, w := rng.Intn(n), rng.Intn(n), weights[rng.Intn(len(weights))]
			b.Add(i, j, w)
			if i != j {
				b.Add(j, i, w)
			}
		}
		cur := &Level{Adj: b.Build(), NodeWeight: ones(n)}
		match := heavyEdgeMatching(cur.Adj, rng)
		if trial%2 == 0 {
			perm := rng.Perm(n) // pairs (perm[0], perm[1]), …; an odd last node stays single
			match[perm[n-1]] = int32(perm[n-1])
			for k := 0; k+1 < n; k += 2 {
				match[perm[k]], match[perm[k+1]] = int32(perm[k+1]), int32(perm[k])
			}
		}
		next, ok := contract(cur, match, 1)
		if !ok {
			t.Fatalf("trial %d: contraction refused", trial)
		}
		got, want := next.Adj, contractFineOrder(cur, next.Map, next.Adj.Rows)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("trial %d: structure differs", trial)
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("trial %d: Val[%d] = %v, want %v", trial, k, got.Val[k], want.Val[k])
			}
		}
	}
}
