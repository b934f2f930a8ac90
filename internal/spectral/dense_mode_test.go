package spectral

import (
	"context"
	"math/rand"
	"testing"
)

func TestBestWCutDenseModeEquivalentQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, truth := directedBlocks(rng, 3, 20, 0.3, 0.01)
	lanczos, err := BestWCutCtx(context.Background(), a, 3, BestWCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := BestWCutCtx(context.Background(), a, 3, BestWCutOptions{DenseEig: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := clusterPurity(lanczos.Assign, truth, 3)
	pd := clusterPurity(dense.Assign, truth, 3)
	if pd < pl-0.1 {
		t.Fatalf("dense mode purity %v well below lanczos %v", pd, pl)
	}
	if pd < 0.85 {
		t.Fatalf("dense mode purity %v too low", pd)
	}
}
