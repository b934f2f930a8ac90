package experiments

import (
	"context"
	"testing"
)

func TestShowcaseGuzmaniaPattern(t *testing.T) {
	sc, err := RunShowcase(context.Background(), datasets(t).Wiki, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Members) < 5 {
		t.Fatalf("showcase cluster too small: %d members", len(sc.Members))
	}
	if sc.IntraEdges != 0 {
		t.Fatalf("genus-less cluster has %d intra edges", sc.IntraEdges)
	}
	if len(sc.SharedOut) == 0 || len(sc.SharedIn) == 0 {
		t.Fatalf("no shared links: out=%d in=%d", len(sc.SharedOut), len(sc.SharedIn))
	}
	// The paper's point: degree-discounting recovers the cluster far
	// better than A+Aᵀ, which cannot even connect the members.
	if sc.DDRecovered < 0.8 {
		t.Fatalf("dd recovered only %.0f%%", 100*sc.DDRecovered)
	}
	if sc.DDRecovered <= sc.AATRecovered {
		t.Fatalf("dd %.2f not above a+at %.2f", sc.DDRecovered, sc.AATRecovered)
	}
	out := FormatShowcase(sc)
	if len(out) == 0 {
		t.Fatal("empty format")
	}
}
