package experiments

import (
	"context"
	"fmt"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/pipeline"
)

// ControlledRow is one point of the synthetically controlled
// validation: the Avg-F of each symmetrization (clustered with
// MLR-MCL) at a given shared-cluster fraction.
type ControlledRow struct {
	SharedFraction float64
	F              map[core.Method]float64 // percentages
}

// ControlledSweep implements the paper's §6 future-work item of
// validating on synthetically controlled data: it sweeps the fraction
// of Figure-1-style shared-link clusters from 0 to 1 and measures each
// symmetrization's Avg-F. The expected shape: at fraction 0 every
// method is competitive; as the fraction grows, A+Aᵀ and RandomWalk
// collapse (the clusters have no internal edges for them to see) while
// Bibliometric and DegreeDiscounted stay high.
func ControlledSweep(ctx context.Context, fractions []float64, opt gen.ControlledOptions, seed int64) ([]ControlledRow, error) {
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	var rows []ControlledRow
	for _, frac := range fractions {
		d, err := gen.Controlled(opt.WithSharedFraction(frac))
		if err != nil {
			return nil, fmt.Errorf("experiments: controlled sweep at %v: %w", frac, err)
		}
		row := ControlledRow{SharedFraction: frac, F: map[core.Method]float64{}}
		for _, m := range pipeline.Methods() {
			u, err := core.SymmetrizeCtx(ctx, d.Graph, m, core.Defaults())
			if err != nil {
				return nil, err
			}
			res, err := clusterWith(ctx, u, AlgoMLRMCL, d.Truth.K, seed)
			if err != nil {
				return nil, err
			}
			rep, err := eval.Evaluate(res.Assign, d.Truth)
			if err != nil {
				return nil, err
			}
			row.F[m] = 100 * rep.AvgF
		}
		rows = append(rows, row)
	}
	return rows, nil
}
