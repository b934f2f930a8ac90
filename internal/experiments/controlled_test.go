package experiments

import (
	"context"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
)

func TestControlledSweepShape(t *testing.T) {
	rows, err := ControlledSweep(context.Background(), []float64{0, 1}, gen.ControlledOptions{
		Clusters: 12, MembersPerCluster: 15, Seed: 5,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	allFlow, allShared := rows[0], rows[1]
	// At fraction 1, the in/out-link methods must dominate A+Aᵀ by a
	// wide margin; A+Aᵀ must degrade badly relative to its all-flow
	// performance.
	if allShared.F[core.DegreeDiscounted] <= allShared.F[core.AAT] {
		t.Fatalf("all-shared: dd %.1f not above a+at %.1f",
			allShared.F[core.DegreeDiscounted], allShared.F[core.AAT])
	}
	if allShared.F[core.Bibliometric] <= allShared.F[core.AAT] {
		t.Fatalf("all-shared: bib %.1f not above a+at %.1f",
			allShared.F[core.Bibliometric], allShared.F[core.AAT])
	}
	if allShared.F[core.AAT] >= allFlow.F[core.AAT] {
		t.Fatalf("a+at should degrade from flow %.1f to shared %.1f",
			allFlow.F[core.AAT], allShared.F[core.AAT])
	}
	if out := ControlledTable(rows); len(out.Rows) != len(rows) {
		t.Fatalf("table has %d rows for %d sweep points", len(out.Rows), len(rows))
	}
}
