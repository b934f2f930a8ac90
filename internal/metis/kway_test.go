package metis

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"symcluster/internal/matrix"
)

func TestKWayRefineImprovesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	adj, truth := blockGraph(rng, 4, 30, 0.4, 0.01)
	// Start from a deliberately damaged version of the truth: swap a
	// band of nodes between parts.
	assign := append([]int(nil), truth...)
	for i := 0; i < 10; i++ {
		assign[i] = (assign[i] + 1) % 4
	}
	before := EdgeCut(adj, assign)
	refined := newWorkspace().kwayRefine(context.Background(), adj, append([]int(nil), assign...), 4, 40, 8)
	after := EdgeCut(adj, refined)
	if after >= before {
		t.Fatalf("k-way refinement did not improve cut: %v -> %v", before, after)
	}
}

func TestKWayRefineRespectsBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	adj, _ := blockGraph(rng, 1, 100, 0.1, 0)
	assign := make([]int, 100)
	for i := range assign {
		assign[i] = i % 4
	}
	refined := newWorkspace().kwayRefine(context.Background(), adj, assign, 4, 30, 8)
	counts := make([]int, 4)
	for _, p := range refined {
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 || float64(c) > 30 {
			t.Fatalf("part %d weight %d violates balance cap 30: %v", p, c, counts)
		}
	}
}

func TestKWayRefineNeverEmptiesPart(t *testing.T) {
	// One node strongly attached elsewhere must stay if it is its
	// part's last member.
	rng := rand.New(rand.NewSource(33))
	adj, _ := blockGraph(rng, 2, 20, 0.5, 0.1)
	assign := make([]int, 40)
	assign[0] = 1 // singleton part 1
	refined := newWorkspace().kwayRefine(context.Background(), adj, assign, 2, 45, 10)
	count1 := 0
	for _, p := range refined {
		if p == 1 {
			count1++
		}
	}
	if count1 == 0 {
		t.Fatal("refinement emptied a part")
	}
}

// TestKWayRefineStoredZeroRow: a stored 0 or -0 leaves linkTo's
// first-touch mark unset, so a row with several of them towards one part
// records that part once per entry — more records than k. touched grows
// by append, so nothing overruns, and the repeats re-evaluate the same
// gain: the refinement is the one the zero-free graph gets.
func TestKWayRefineStoredZeroRow(t *testing.T) {
	// Two 4-cliques; node 3 starts in the wrong part and its row also
	// stores a zero towards every node of that part.
	build := func(zeros bool) *matrix.CSR {
		adj := &matrix.CSR{Rows: 8, Cols: 8, RowPtr: make([]int64, 9)}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				switch {
				case i != j && i/4 == j/4:
					adj.ColIdx, adj.Val = append(adj.ColIdx, int32(j)), append(adj.Val, 1)
				case zeros && (i == 3 && j >= 4 || j == 3 && i >= 4):
					adj.ColIdx, adj.Val = append(adj.ColIdx, int32(j)), append(adj.Val, math.Copysign(0, float64((i+j)%2)-0.5))
				}
			}
			adj.RowPtr[i+1] = int64(len(adj.ColIdx))
		}
		return adj
	}
	start := []int{0, 0, 0, 1, 1, 1, 1, 1}
	want := newWorkspace().kwayRefine(context.Background(), build(false), append([]int(nil), start...), 2, 5, 4)
	got := newWorkspace().kwayRefine(context.Background(), build(true), append([]int(nil), start...), 2, 5, 4)
	if truth := []int{0, 0, 0, 0, 1, 1, 1, 1}; !reflect.DeepEqual(got, truth) || !reflect.DeepEqual(want, truth) {
		t.Fatalf("refined %v with the stored zeros, %v without, want %v", got, want, truth)
	}
}
