package spectral

import (
	"context"
	"fmt"
	"math"

	"symcluster/internal/matrix"
)

// NormalizedCutOptions configures NormalizedCut.
type NormalizedCutOptions struct {
	KMeans  KMeansOptions
	Lanczos LanczosOptions
}

// NormalizedCutCtx is classic undirected spectral clustering (Shi &
// Malik / Ng–Jordan–Weiss): compute the top-k eigenvectors of the
// normalised adjacency N = D^{-1/2} A D^{-1/2} (equivalently the
// smallest of the normalised Laplacian), row-normalise the embedding
// and k-means it. Provided as the textbook baseline the two-stage
// framework plugs arbitrary clusterers into. ctx is polled at iteration
// boundaries of the Lanczos and k-means stages.
func NormalizedCutCtx(ctx context.Context, adj *matrix.CSR, k int, opt NormalizedCutOptions) (*Result, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("spectral: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	n := adj.Rows
	if k < 1 || (k > n && n > 0) {
		return nil, fmt.Errorf("spectral: k = %d out of range for %d nodes", k, n)
	}
	if n == 0 {
		return &Result{Assign: []int{}, K: k}, nil
	}
	deg := adj.RowSums()
	dinv := make([]float64, n)
	for i, d := range deg {
		if d > 0 {
			dinv[i] = 1 / math.Sqrt(d)
		}
	}
	nmat := adj.ScaleRows(dinv).ScaleCols(dinv)
	return spectralEmbedCluster(ctx, Operator(nmat), n, k, opt.Lanczos, opt.KMeans)
}
