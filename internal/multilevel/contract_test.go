package multilevel

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"symcluster/internal/matrix"
)

// contractFineOrder is the contraction as a triplet builder assembles it:
// every fine row in index order through a Builder, whose stable scatter
// regroups the triplets by coarse row and whose Build folds them.
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

// TestContractMatchesFineOrder: the coarse adjacency contract writes
// directly, row where it lands, is bit for bit what the fine-row walk
// through a Builder built — on symmetric graphs whose weights do not add
// exactly, with self-loops, with pairs of edges that cancel to zero once
// merged, and dense enough that coarse rows hold several times the 12
// entries below which the per-row sort is stable and that three- and
// four-way merges (whose sum depends on the order the sort leaves equal
// columns in) are the rule; the test counts both. Matchings are random
// pairings, which merge what heavy-edge matching would not, and the
// level's own.
func TestContractMatchesFineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	weights := []float64{0.1, 0.2, 0.3, 0.7, 1.0 / 3, 1e16, -1e16, -0.1, 1}
	var longRows, threeWay int
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
		var s Scratch
		h, _ := coarsen(context.Background(), b.Build(), Options{MinNodes: n}, &s) // the finest level alone
		cur := h.Levels[0]
		match := s.heavyEdgeMatching(cur.Adj, rng)
		if trial%2 == 0 {
			perm := rng.Perm(n) // pairs (perm[0], perm[1]), …; an odd last node stays single
			match[perm[n-1]] = int32(perm[n-1])
			for k := 0; k+1 < n; k += 2 {
				match[perm[k]], match[perm[k+1]] = int32(perm[k+1]), int32(perm[k])
			}
		}
		coarse := &Hierarchy{}
		if !s.contract(cur, match, coarse) {
			t.Fatalf("trial %d: contraction refused", trial)
		}
		next := coarse.Levels[0]
		got, want := next.Adj, contractFineOrder(cur, next.Map, next.Adj.Rows)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("trial %d: structure differs", trial)
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("trial %d: Val[%d] = %v, want %v", trial, k, got.Val[k], want.Val[k])
			}
		}
		// What the fold was given: fine entries per coarse row and per
		// coarse coordinate.
		meet := map[[2]int32]int{}
		perRow := make([]int, next.Adj.Rows)
		for i := 0; i < n; i++ {
			cols, _ := cur.Adj.Row(i)
			perRow[next.Map[i]] += len(cols)
			for _, c := range cols {
				meet[[2]int32{next.Map[i], next.Map[c]}]++
			}
		}
		for _, m := range perRow {
			longRows += b2i(m > 12)
		}
		for _, m := range meet {
			threeWay += b2i(m >= 3)
		}
	}
	if longRows == 0 || threeWay == 0 {
		t.Fatalf("%d coarse rows past the sort's cutoff, %d coordinates where three or more fine entries meet: want both", longRows, threeWay)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
