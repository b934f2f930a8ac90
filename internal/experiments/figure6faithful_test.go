package experiments

import (
	"context"
	"testing"

	"symcluster/internal/gen"
)

func TestFigure6FaithfulTimingGap(t *testing.T) {
	// A reduced Cora keeps the O(n³) dense eigensolver affordable in
	// the suite while still exhibiting the paper's Figure 6(b) gap.
	cora, err := gen.Citation(gen.CitationOptions{Nodes: 1000, Topics: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cora.Name = "cora"
	series, err := Figure6Faithful(context.Background(), cora, 1)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for _, s := range series {
		times[s.Label] = s.Points[0].Seconds
	}
	// The dense-eig BestWCut must be dramatically slower than every
	// multilevel clusterer (the paper's Figure 6(b) shape).
	for _, algo := range []string{"MLR-MCL", "Metis", "Graclus"} {
		if times["BestWCut(dense)"] < 3*times[algo] {
			t.Fatalf("BestWCut(dense) %.2fs not well above %s %.2fs",
				times["BestWCut(dense)"], algo, times[algo])
		}
	}
}
