package spectral

import (
	"context"
	"fmt"
	"math"

	"symcluster/internal/matrix"
	"symcluster/internal/walk"
)

// BestWCutOptions configures BestWCutCtx.
type BestWCutOptions struct {
	// KMeans configures the final embedding clustering.
	KMeans KMeansOptions
	// Lanczos configures the eigensolver.
	Lanczos LanczosOptions
	// DenseEig replaces the Lanczos eigensolver with a full dense
	// eigendecomposition (O(n³)), matching how the 2007-era reference
	// implementations computed eigenvectors. Use for era-faithful
	// timing comparisons (Figure 6(b)); results are equivalent.
	DenseEig bool
}

// Result is the output of the spectral clusterers.
type Result struct {
	Assign []int
	K      int
	// Eigenvalues of the relaxation, descending (diagnostic).
	Eigenvalues []float64
}

// BestWCutCtx reimplements the weighted-cut spectral algorithm of Meila &
// Pentney ("Clustering by Weighted Cuts in Directed Graphs", SDM 2007):
// minimise WCut(S) over k-way partitions by the standard spectral
// relaxation. With T' row weights and T volume weights, the relaxation
// clusters the rows of the top-k eigenvectors of the normalised
// symmetric matrix
//
//	N = D_T^{-1/2} · (T̂'A + AᵀT̂')/2 · D_T^{-1/2}
//
// (T̂' = diag(T')), followed by k-means on the row-normalised
// embedding.
//
// This is a faithful-in-structure reimplementation: the original
// authors' code is unavailable, and the defining properties preserved
// here are (i) the WCut objective, in its stationary instance, and
// (ii) the dependence on eigenvector computations that makes the
// method slow at scale (the paper's §5.2, Figure 6).
//
// ctx is threaded through the stationary-distribution power iteration,
// the Lanczos factorisation and the k-means restarts, so a cancelled
// context aborts the pipeline at the next iteration boundary with ctx's
// error.
func BestWCutCtx(ctx context.Context, a *matrix.CSR, k int, opt BestWCutOptions) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spectral: adjacency %dx%d not square", a.Rows, a.Cols)
	}
	n := a.Rows
	if k < 1 || (k > n && n > 0) {
		return nil, fmt.Errorf("spectral: k = %d out of range for %d nodes", k, n)
	}
	if n == 0 {
		return &Result{Assign: []int{}, K: k}, nil
	}

	// The stationary weighting, T(i) = π(i) and T'(i) = π(i)/d_out(i),
	// makes WCut coincide with the directed normalised cut NCut_dir
	// (paper Eq. 3).
	pi, err := walk.PageRankCtx(ctx, a, walk.DefaultTeleport)
	if err != nil {
		return nil, fmt.Errorf("spectral: BestWCut stationary distribution: %w", err)
	}
	out := a.RowCounts()
	tvec, tprime := pi, make([]float64, n)
	for i := 0; i < n; i++ {
		if out[i] > 0 {
			tprime[i] = pi[i] / float64(out[i])
		} else {
			tprime[i] = pi[i]
		}
	}

	// S = (T̂'A + AᵀT̂')/2; N = D_T^{-1/2} S D_T^{-1/2}.
	tpa := a.ScaleRows(tprime)
	s := matrix.AddTransposeSym(tpa, 0.5)
	dinv := make([]float64, n)
	for i, t := range tvec {
		if t > 0 {
			dinv[i] = 1 / math.Sqrt(t)
		}
	}
	nmat := s.ScaleRows(dinv).ScaleCols(dinv)

	if opt.DenseEig {
		return denseEmbedCluster(ctx, nmat, k, opt.KMeans)
	}
	return spectralEmbedCluster(ctx, Operator(nmat), n, k, opt.Lanczos, opt.KMeans)
}

// ZhouOptions configures ZhouDirectedCtx.
type ZhouOptions struct {
	KMeans  KMeansOptions
	Lanczos LanczosOptions
}

// ZhouDirectedCtx implements the directed spectral clustering of Zhou,
// Huang & Schölkopf (ICML 2005): compute the directed Laplacian of the
// paper's Eq. 5,
//
//	L = I − (Π^{1/2} P Π^{-1/2} + Π^{-1/2} Pᵀ Π^{1/2}) / 2,
//
// take the k eigenvectors of L with smallest eigenvalues (equivalently
// the top-k of the symmetrized transition term), and k-means the
// row-normalised embedding. ctx is polled at iteration boundaries of
// the power iteration, Lanczos and k-means stages.
func ZhouDirectedCtx(ctx context.Context, a *matrix.CSR, k int, opt ZhouOptions) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spectral: adjacency %dx%d not square", a.Rows, a.Cols)
	}
	n := a.Rows
	if k < 1 || (k > n && n > 0) {
		return nil, fmt.Errorf("spectral: k = %d out of range for %d nodes", k, n)
	}
	if n == 0 {
		return &Result{Assign: []int{}, K: k}, nil
	}
	p := walk.TransitionMatrix(a)
	pi, err := walk.StationaryDistributionCtx(ctx, p, walk.Options{Teleport: walk.DefaultTeleport})
	if err != nil {
		return nil, fmt.Errorf("spectral: Zhou stationary distribution: %w", err)
	}
	sqrtPi := make([]float64, n)
	invSqrtPi := make([]float64, n)
	for i, v := range pi {
		if v > 0 {
			sqrtPi[i] = math.Sqrt(v)
			invSqrtPi[i] = 1 / sqrtPi[i]
		}
	}
	half := p.ScaleRows(sqrtPi).ScaleCols(invSqrtPi) // Π^{1/2} P Π^{-1/2}
	nmat := matrix.AddTransposeSym(half, 0.5)

	return spectralEmbedCluster(ctx, Operator(nmat), n, k, opt.Lanczos, opt.KMeans)
}

// denseEmbedCluster is spectralEmbedCluster with the dense O(n³)
// eigensolver, for era-faithful timing runs.
func denseEmbedCluster(ctx context.Context, nmat *matrix.CSR, k int, kopt KMeansOptions) (*Result, error) {
	eig, err := DenseEigen(nmat, k)
	if err != nil {
		return nil, fmt.Errorf("spectral: dense eigensolver: %w", err)
	}
	return embedAndKMeans(ctx, eig, nmat.Rows, k, kopt)
}

// spectralEmbedCluster computes the top-k eigenvectors of op, builds
// the n×k embedding, row-normalises it and k-means it.
func spectralEmbedCluster(ctx context.Context, op MatVec, n, k int, lopt LanczosOptions, kopt KMeansOptions) (*Result, error) {
	eig, err := TopEigenCtx(ctx, op, k, lopt)
	if err != nil {
		return nil, fmt.Errorf("spectral: eigensolver: %w", err)
	}
	return embedAndKMeans(ctx, eig, n, k, kopt)
}

// embedAndKMeans builds the n×k eigenvector embedding, row-normalises
// it and k-means it.
func embedAndKMeans(ctx context.Context, eig *Eigen, n, k int, kopt KMeansOptions) (*Result, error) {
	embed := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for t := 0; t < k; t++ {
			row[t] = eig.Vectors[t][i]
		}
		embed[i] = row
	}
	NormalizeRowsUnit(embed)
	assign, _, err := KMeansCtx(ctx, embed, k, kopt)
	if err != nil {
		return nil, fmt.Errorf("spectral: kmeans: %w", err)
	}
	return &Result{Assign: assign, K: k, Eigenvalues: eig.Values}, nil
}
