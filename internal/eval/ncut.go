package eval

import (
	"context"
	"fmt"

	"symcluster/internal/matrix"
	"symcluster/internal/walk"
)

// NCut returns the undirected normalised cut Σ_c cut(c)/deg(c) of the
// assignment over the symmetric adjacency adj (paper Eq. 1 summed over
// all clusters). Degree-less clusters contribute nothing.
func NCut(adj *matrix.CSR, assign []int) (float64, error) {
	if adj.Rows != adj.Cols {
		return 0, fmt.Errorf("eval: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	if len(assign) != adj.Rows {
		return 0, fmt.Errorf("eval: %d assignments for %d nodes", len(assign), adj.Rows)
	}
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	cut := make([]float64, k)
	deg := make([]float64, k)
	for i := 0; i < adj.Rows; i++ {
		ci := assign[i]
		cols, vals := adj.Row(i)
		for t, c := range cols {
			deg[ci] += vals[t]
			if assign[c] != ci {
				cut[ci] += vals[t]
			}
		}
	}
	var total float64
	for c := 0; c < k; c++ {
		if deg[c] > 0 {
			total += cut[c] / deg[c]
		}
	}
	return total, nil
}

// NCutDirected returns the directed normalised cut of the assignment
// over the directed adjacency a (paper Eq. 3 summed over all
// clusters): for each cluster S,
//
//	NCut_dir(S) = P(S→S̄)/π(S) + P(S̄→S)/π(S̄)
//
// under the random walk with the given teleport probability (0 means
// walk.DefaultTeleport). Clusters with zero stationary mass contribute
// nothing. ctx bounds the power iteration.
func NCutDirected(ctx context.Context, a *matrix.CSR, assign []int, teleport float64) (float64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("eval: adjacency %dx%d not square", a.Rows, a.Cols)
	}
	if len(assign) != a.Rows {
		return 0, fmt.Errorf("eval: %d assignments for %d nodes", len(assign), a.Rows)
	}
	if teleport == 0 {
		teleport = walk.DefaultTeleport
	}
	p := walk.TransitionMatrix(a)
	pi, err := walk.StationaryDistributionCtx(ctx, p, walk.Options{Teleport: teleport})
	if err != nil {
		return 0, fmt.Errorf("eval: directed ncut: %w", err)
	}
	k := 0
	for _, c := range assign {
		if c+1 > k {
			k = c + 1
		}
	}
	outFlow := make([]float64, k) // P(S→S̄)
	inFlow := make([]float64, k)  // P(S̄→S)
	vol := make([]float64, k)     // π(S)
	var totalPi float64
	for i := 0; i < a.Rows; i++ {
		ci := assign[i]
		vol[ci] += pi[i]
		totalPi += pi[i]
		cols, vals := p.Row(i)
		for t, c := range cols {
			if assign[c] != ci {
				outFlow[ci] += pi[i] * vals[t]
				inFlow[assign[c]] += pi[i] * vals[t]
			}
		}
	}
	var total float64
	for c := 0; c < k; c++ {
		volBar := totalPi - vol[c]
		if vol[c] > 0 {
			total += outFlow[c] / vol[c]
		}
		if volBar > 0 {
			total += inFlow[c] / volBar
		}
	}
	// Eq. 3 counts each boundary crossing from both sides of the cut;
	// summed over all k clusters that double-counts, so the k-way score
	// is halved. On a symmetric graph with no teleport this then reduces
	// exactly to the undirected k-way NCut.
	return total / 2, nil
}
