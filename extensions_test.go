package symcluster_test

import (
	"context"
	"math/rand"
	"testing"

	"symcluster"
)

// TestClusterMultipartitePublic co-clusters a bipartite graph as the
// two-layer multipartite graph: two planted blocks on each side.
func TestClusterMultipartitePublic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows, cols := 40, 30
	b := symcluster.NewMatrixBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			p := 0.02
			if (i < rows/2) == (j < cols/2) {
				p = 0.5
			}
			if rng.Float64() < p {
				b.Add(i, j, 1)
			}
		}
	}
	g := &symcluster.MultipartiteGraph{
		LayerSizes: []int{rows, cols},
		Relations:  []symcluster.MultipartiteRelation{{From: 0, To: 1, B: b.Build()}},
	}
	res, err := symcluster.ClusterMultipartiteCtx(context.Background(), g, symcluster.MultipartiteOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rowAssign, colAssign := res.Assign[0], res.Assign[1]
	if len(rowAssign) != rows || len(colAssign) != cols {
		t.Fatalf("dims %d/%d", len(rowAssign), len(colAssign))
	}
	if rowAssign[0] != rowAssign[10] || rowAssign[0] == rowAssign[30] {
		t.Fatalf("row blocks not separated: %v", rowAssign)
	}
	if colAssign[0] != colAssign[7] || colAssign[0] == colAssign[22] {
		t.Fatalf("column blocks not separated: %v", colAssign)
	}
}
