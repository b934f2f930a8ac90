package graclus

import (
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

// seededBase is a fresh workspace's base clustering under seed.
func seededBase(adj *matrix.CSR, k int, seed int64) []int {
	ws := newWorkspace()
	ws.rng.Seed(seed)
	return ws.baseClustering(adj, k)
}

func TestBaseClusteringCoversAllNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	adj, _ := blockGraph(rng, 3, 15, 0.4, 0.02)
	for seed := int64(0); seed < 5; seed++ {
		assign := seededBase(adj, 4, seed)
		if len(assign) != adj.Rows {
			t.Fatalf("len %d", len(assign))
		}
		for i, a := range assign {
			if a < 0 || a >= 4 {
				t.Fatalf("node %d unassigned or out of range: %d", i, a)
			}
		}
	}
}

func TestBaseClusteringDisconnectedLeftovers(t *testing.T) {
	// Graph with isolated nodes: region growing cannot reach them, the
	// round-robin fallback must.
	b := matrix.NewBuilder(10, 10)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	adj := b.Build()
	assign := seededBase(adj, 3, 1)
	for i, a := range assign {
		if a < 0 || a >= 3 {
			t.Fatalf("node %d out of range: %d", i, a)
		}
	}
}

func TestBaseClusteringKGreaterEqualN(t *testing.T) {
	adj := matrix.Zero(4, 4)
	assign := seededBase(adj, 6, 2)
	for i, a := range assign {
		if a != i%6 {
			t.Fatalf("k>=n fallback wrong at %d: %d", i, a)
		}
	}
}

func TestQuotient(t *testing.T) {
	if quotient(4, 2) != 2 {
		t.Fatal("quotient wrong")
	}
	if quotient(4, 0) != 0 {
		t.Fatal("zero denominator must yield 0")
	}
	if quotient(4, -1) != 0 {
		t.Fatal("negative denominator must yield 0")
	}
}
