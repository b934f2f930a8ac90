package spectral

import (
	"context"
	"math/rand"
	"testing"

	"symcluster/internal/matrix"
)

func symBlocks(rng *rand.Rand, k, sz int, pin, pout float64) (*matrix.CSR, []int) {
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

func TestNormalizedCutRecoversBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, truth := symBlocks(rng, 3, 30, 0.4, 0.01)
	res, err := NormalizedCutCtx(context.Background(), adj, 3, NormalizedCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := clusterPurity(res.Assign, truth, 3); p < 0.9 {
		t.Fatalf("purity %v", p)
	}
}

func TestNormalizedCutErrors(t *testing.T) {
	if _, err := NormalizedCutCtx(context.Background(), matrix.Zero(2, 3), 2, NormalizedCutOptions{}); err == nil {
		t.Fatal("accepted non-square")
	}
	if _, err := NormalizedCutCtx(context.Background(), matrix.Zero(3, 3), 0, NormalizedCutOptions{}); err == nil {
		t.Fatal("accepted k=0")
	}
	res, err := NormalizedCutCtx(context.Background(), matrix.Zero(0, 0), 2, NormalizedCutOptions{})
	if err != nil || len(res.Assign) != 0 {
		t.Fatal("empty graph handling")
	}
}

func TestNormalizedCutIsolatedNodes(t *testing.T) {
	// Graph with isolated nodes must not NaN out.
	b := matrix.NewBuilder(6, 6)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(2, 3, 1)
	b.Add(3, 2, 1)
	res, err := NormalizedCutCtx(context.Background(), b.Build(), 2, NormalizedCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 6 {
		t.Fatalf("assign len %d", len(res.Assign))
	}
}
