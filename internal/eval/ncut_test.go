package eval

import (
	"context"
	"math"
	"testing"

	"symcluster/internal/matrix"
)

func TestNCutTwoTriangles(t *testing.T) {
	b := matrix.NewBuilder(6, 6)
	add := func(u, v int) { b.Add(u, v, 1); b.Add(v, u, 1) }
	add(0, 1)
	add(1, 2)
	add(0, 2)
	add(3, 4)
	add(4, 5)
	add(3, 5)
	add(2, 3)
	got, err := NCut(b.Build(), []int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0/7.0) > 1e-12 {
		t.Fatalf("ncut = %v, want 2/7", got)
	}
}

func TestNCutSingleCluster(t *testing.T) {
	b := matrix.NewBuilder(3, 3)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	got, err := NCut(b.Build(), []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("single-cluster ncut = %v", got)
	}
}

func TestNCutErrors(t *testing.T) {
	if _, err := NCut(matrix.Zero(2, 3), []int{0, 0}); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := NCut(matrix.Zero(2, 2), []int{0}); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestNCutDirectedMatchesUndirectedOnSymmetricGraph(t *testing.T) {
	// On a symmetric graph with no teleport, the directed ncut under
	// the natural walk coincides with the undirected ncut (π ∝ degree).
	b := matrix.NewBuilder(6, 6)
	add := func(u, v int) { b.Add(u, v, 1); b.Add(v, u, 1) }
	add(0, 1)
	add(1, 2)
	add(0, 2)
	add(3, 4)
	add(4, 5)
	add(3, 5)
	add(2, 3)
	adj := b.Build()
	assign := []int{0, 0, 0, 1, 1, 1}
	undirected, err := NCut(adj, assign)
	if err != nil {
		t.Fatal(err)
	}
	directed, err := NCutDirected(context.Background(), adj, assign, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(undirected-directed) > 1e-3 {
		t.Fatalf("directed %v vs undirected %v", directed, undirected)
	}
}

func TestNCutDirectedFigure1IsHigh(t *testing.T) {
	// The Figure-1 cluster {4,5} must have a high directed ncut (its
	// every walk step crosses the boundary) — the paper's §2.1.1.
	b := matrix.NewBuilder(6, 6)
	for _, src := range []int{0, 1} {
		for _, dst := range []int{4, 5} {
			b.Add(src, dst, 1)
		}
	}
	for _, src := range []int{4, 5} {
		for _, dst := range []int{2, 3} {
			b.Add(src, dst, 1)
		}
	}
	// Clustering that puts {4,5} together: directed ncut of that
	// cluster alone is near maximal.
	got, err := NCutDirected(context.Background(), b.Build(), []int{0, 0, 1, 1, 2, 2}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.9 {
		t.Fatalf("directed ncut = %v, expected high (> 0.9)", got)
	}
}

func TestNCutDirectedErrors(t *testing.T) {
	if _, err := NCutDirected(context.Background(), matrix.Zero(2, 3), []int{0, 0}, 0.05); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := NCutDirected(context.Background(), matrix.Zero(2, 2), []int{0}, 0.05); err == nil {
		t.Fatal("accepted length mismatch")
	}
}
