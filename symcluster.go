// Package symcluster clusters directed graphs by the two-stage
// framework of Satuluri & Parthasarathy, "Symmetrizations for
// Clustering Directed Graphs" (EDBT 2011): first symmetrize the
// directed graph into a weighted undirected graph, then cluster the
// undirected graph with an off-the-shelf algorithm.
//
// The key insight is that meaningful clusters in directed graphs are
// groups of vertices with similar in-links and out-links — not
// necessarily groups that link to each other. Four symmetrizations are
// provided:
//
//   - AAT: U = A + Aᵀ, the implicit baseline of most prior work.
//   - RandomWalk: U = (ΠP + PᵀΠ)/2; clustering U by normalised cut is
//     equivalent to minimising the directed normalised cut on A.
//   - Bibliometric: U = AAᵀ + AᵀA, connecting nodes that share out-
//     or in-links (bibliographic coupling + co-citation).
//   - DegreeDiscounted: the paper's proposal — bibliometric similarity
//     with hub contributions discounted by degree, U_d =
//     D_o^{-α}AD_i^{-β}AᵀD_o^{-α} + D_i^{-β}AᵀD_o^{-α}AD_i^{-β}
//     (α = β = 0.5 recommended), which both improves cluster quality
//     and makes the symmetrized graph prunable and fast to cluster.
//
// Three undirected clustering substrates are bundled (MLR-MCL, a
// Metis-style multilevel partitioner, and a Graclus-style kernel
// k-means clusterer), along with two directed spectral baselines
// (BestWCut of Meila & Pentney and the directed Laplacian method of
// Zhou et al.), the paper's evaluation measures, and synthetic dataset
// generators with known ground truth.
//
// Quick start:
//
//	data, _ := symcluster.GenerateCitation(symcluster.CitationOptions{Seed: 1})
//	u, _ := symcluster.Symmetrize(data.Graph, symcluster.DegreeDiscounted, symcluster.DefaultSymmetrizeOptions())
//	res, _ := symcluster.Cluster(u, symcluster.MLRMCL, symcluster.ClusterOptions{TargetClusters: 70, Seed: 1})
//	rep, _ := symcluster.Evaluate(res.Assign, data.Truth)
//	fmt.Printf("Avg-F = %.4f over %d clusters\n", rep.AvgF, res.K)
package symcluster

import (
	"context"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/matrix"
	"symcluster/internal/pipeline"
	"symcluster/internal/walk"
)

// Re-exported graph and evaluation types. Aliases let callers outside
// this module name the types the exported functions exchange.
type (
	// Matrix is a sparse matrix in compressed sparse row form.
	Matrix = matrix.CSR
	// DirectedGraph is a weighted directed graph over a CSR adjacency.
	DirectedGraph = graph.Directed
	// UndirectedGraph is a weighted undirected (symmetric) graph; the
	// output of every symmetrization.
	UndirectedGraph = graph.Undirected
	// GroundTruth holds overlapping per-node category assignments.
	GroundTruth = eval.GroundTruth
	// Report is the per-cluster and aggregate F-measure evaluation.
	Report = eval.Report
	// SignTestResult is the paired binomial sign test output.
	SignTestResult = eval.SignTestResult
	// Dataset bundles a generated graph with optional ground truth.
	Dataset = gen.Dataset
	// Edge is a weighted undirected edge (for top-edge reports).
	Edge = graph.Edge
	// CitationOptions configures the Cora-like generator.
	CitationOptions = gen.CitationOptions
	// WikiOptions configures the Wikipedia-like generator.
	WikiOptions = gen.WikiOptions
	// KroneckerOptions configures the R-MAT scalability generator.
	KroneckerOptions = gen.KroneckerOptions
	// SymmetrizeOptions configures Symmetrize (α, β, pruning, …).
	SymmetrizeOptions = core.Options
	// MatrixBuilder accumulates (row, col, value) triplets into a CSR
	// Matrix; duplicates are summed.
	MatrixBuilder = matrix.Builder
)

// NewMatrixBuilder returns a builder for a rows×cols sparse matrix,
// the entry point for constructing graphs programmatically.
func NewMatrixBuilder(rows, cols int) *MatrixBuilder { return matrix.NewBuilder(rows, cols) }

// NewDirectedGraph wraps a square adjacency matrix (and optional node
// labels) as a directed graph.
func NewDirectedGraph(adj *Matrix, labels []string) (*DirectedGraph, error) {
	return graph.NewDirected(adj, labels)
}

// SymMethod selects a symmetrization.
type SymMethod = core.Method

// The four symmetrizations of the paper, in its plots' order.
const (
	// DegreeDiscounted is the paper's proposed symmetrization (§3.4).
	DegreeDiscounted = core.DegreeDiscounted
	// Bibliometric is U = AAᵀ + AᵀA (§3.3).
	Bibliometric = core.Bibliometric
	// AAT is U = A + Aᵀ (§3.1).
	AAT = core.AAT
	// RandomWalk is U = (ΠP + PᵀΠ)/2 (§3.2).
	RandomWalk = core.RandomWalk
)

// Methods lists all symmetrizations.
var Methods = core.Methods

// ParseMethod resolves a symmetrization from its wire name or any
// registered alias ("dd", "degree-discounted", …), case-insensitively.
// Unknown names yield an error listing the valid set.
func ParseMethod(name string) (SymMethod, error) {
	sym, err := pipeline.LookupSymmetrizer(name)
	if err != nil {
		return 0, err
	}
	return sym.Method(), nil
}

// MethodName returns the canonical wire name ("dd", "bib", "aat",
// "rw") of a symmetrization, as accepted by ParseMethod, the CLI, and
// the daemon.
func MethodName(m SymMethod) string {
	sym, err := pipeline.SymmetrizerFor(m)
	if err != nil {
		return m.String()
	}
	return sym.Name()
}

// ValidateSymmetrizeOptions checks opt's ranges for the given method
// without running it — the same validation Symmetrize applies.
func ValidateSymmetrizeOptions(m SymMethod, opt SymmetrizeOptions) error {
	sym, err := pipeline.SymmetrizerFor(m)
	if err != nil {
		return err
	}
	return sym.Validate(opt)
}

// DefaultSymmetrizeOptions returns the paper's recommended settings:
// α = β = 0.5, teleport 0.05, self-similarities dropped.
func DefaultSymmetrizeOptions() SymmetrizeOptions { return core.Defaults() }

// Symmetrize transforms a directed graph into an undirected graph with
// the selected method. Labels carry over.
func Symmetrize(g *DirectedGraph, method SymMethod, opt SymmetrizeOptions) (*UndirectedGraph, error) {
	return core.Symmetrize(g, method, opt)
}

// SymmetrizeCtx is Symmetrize with cancellation: the kernels underneath
// poll ctx at iteration and row-block boundaries, so a cancelled or
// expired context aborts the symmetrization within one block of kernel
// work and the call returns ctx's error (context.Canceled or
// context.DeadlineExceeded).
func SymmetrizeCtx(ctx context.Context, g *DirectedGraph, method SymMethod, opt SymmetrizeOptions) (*UndirectedGraph, error) {
	return core.SymmetrizeCtx(ctx, g, method, opt)
}

// OutOfCoreConfig configures the out-of-core symmetrization path: the
// large operands (input, transpose, scaled factors) live in
// memory-mapped binary CSR files under a scratch directory instead of
// the heap, with results byte-identical to the in-core path. See
// internal/csr and DESIGN.md §13.
type OutOfCoreConfig = core.OutOfCoreConfig

// ErrResidentBudget marks an out-of-core run aborted because its
// heap-resident intermediates exceeded OutOfCoreConfig.MaxResidentBytes.
var ErrResidentBudget = core.ErrResidentBudget

// WithOutOfCore returns a context that routes SymmetrizeCtx (and every
// pipeline entry point built on it) through the out-of-core path.
func WithOutOfCore(ctx context.Context, cfg OutOfCoreConfig) context.Context {
	return core.WithOutOfCore(ctx, cfg)
}

// CalibrateThreshold estimates a degree-discounted prune threshold that
// yields approximately the target average degree in the symmetrized
// graph, following §5.3.1's sampling recipe.
func CalibrateThreshold(g *DirectedGraph, opt SymmetrizeOptions, targetAvgDegree float64, sample int, seed int64) (float64, error) {
	return core.CalibrateThreshold(g.Adj, opt, targetAvgDegree, sample, seed)
}

// Algorithm selects a clustering substrate. It is an alias of the
// pipeline registry's identifier type: every registered clusterer —
// the paper's three undirected substrates, plain spectral clustering,
// and the two directed spectral baselines — is a valid value.
type Algorithm = pipeline.Algorithm

const (
	// MLRMCL is multi-level regularized Markov clustering (Satuluri &
	// Parthasarathy, KDD 2009). The number of clusters is controlled
	// indirectly through the inflation parameter.
	MLRMCL = pipeline.MLRMCL
	// Metis is a multilevel k-way partitioner by recursive bisection
	// with Fiduccia–Mattheyses refinement (Karypis & Kumar, 1999).
	Metis = pipeline.Metis
	// Graclus is a multilevel weighted-kernel-k-means normalised-cut
	// clusterer (Dhillon, Guan & Kulis, TPAMI 2007).
	Graclus = pipeline.Graclus
	// Spectral is classic undirected normalised-cut spectral
	// clustering (relaxation + k-means).
	Spectral = pipeline.SpectralNCut
	// BestWCutAlgo is the Meila–Pentney directed weighted-cut spectral
	// baseline. It clusters the directed graph itself; the symmetrize
	// stage is bypassed.
	BestWCutAlgo = pipeline.BestWCut
	// ZhouAlgo is the directed-Laplacian spectral baseline of Zhou,
	// Huang & Schölkopf. It clusters the directed graph itself; the
	// symmetrize stage is bypassed.
	ZhouAlgo = pipeline.Zhou
)

// Algorithms lists every registered clustering substrate.
var Algorithms = pipeline.AlgorithmIDs()

// ParseAlgorithm resolves a clustering substrate from its wire name or
// any registered alias ("mcl", "mlr-mcl", "spectral", …),
// case-insensitively. Unknown names yield an error listing the valid
// set.
func ParseAlgorithm(name string) (Algorithm, error) {
	cl, err := pipeline.LookupClusterer(name)
	if err != nil {
		return 0, err
	}
	return cl.ID(), nil
}

// AlgorithmName returns the canonical wire name ("mcl", "metis", …) of
// an algorithm, as accepted by ParseAlgorithm, the CLI, and the
// daemon.
func AlgorithmName(a Algorithm) string {
	cl, err := pipeline.ClustererFor(a)
	if err != nil {
		return a.String()
	}
	return cl.Name()
}

// AcceptsDirected reports whether the algorithm clusters the directed
// graph itself (the spectral baselines), bypassing the symmetrize
// stage of the two-stage pipeline.
func AcceptsDirected(a Algorithm) bool { return a.AcceptsDirected() }

// RequiresK reports whether the algorithm needs an explicit target
// cluster count (every substrate except MLR-MCL, which can pick its
// granularity through inflation).
func RequiresK(a Algorithm) bool { return a.RequiresK() }

// ClusterOptions configures Cluster.
//
// TargetClusters is the desired number of clusters: Metis, Graclus and
// the spectral substrates honour it exactly, while MLR-MCL uses it to
// pick an inflation (its cluster count is inherently approximate —
// paper §4.2). Inflation (> 1) overrides the MLR-MCL inflation
// directly. Seed drives all randomised choices.
type ClusterOptions = pipeline.ClusterOptions

// Clustering is the output of Cluster: a node → cluster assignment.
type Clustering = pipeline.Result

// StageTrace reports per-stage wall-clock timings and the symmetrized
// edge count of a pipeline run, as surfaced by the CLI's -json output
// and the daemon's responses.
type StageTrace = pipeline.StageTrace

// Cluster runs the selected algorithm on a symmetrized graph.
func Cluster(u *UndirectedGraph, algo Algorithm, opt ClusterOptions) (*Clustering, error) {
	return ClusterCtx(context.Background(), u, algo, opt)
}

// ClusterCtx is Cluster with cancellation: every substrate polls ctx at
// iteration boundaries (MCL expansion rounds, bisection and refinement
// passes), so a cancelled or expired context aborts the clustering
// within one iteration and the call returns ctx's error.
//
// Dispatch goes through the pipeline registry, so every registered
// substrate is available; the directed-only baselines (BestWCutAlgo,
// ZhouAlgo) reject an undirected input — use ClusterDirected or the
// dedicated helpers for those.
func ClusterCtx(ctx context.Context, u *UndirectedGraph, algo Algorithm, opt ClusterOptions) (*Clustering, error) {
	cl, err := pipeline.ClustererFor(algo)
	if err != nil {
		return nil, err
	}
	return cl.Run(ctx, pipeline.Input{U: u}, opt)
}

// ClusterDirected runs the full two-stage pipeline: symmetrize with
// method, then cluster with algo. Algorithms that cluster the directed
// graph directly (AcceptsDirected) skip the symmetrize stage.
func ClusterDirected(g *DirectedGraph, method SymMethod, symOpt SymmetrizeOptions, algo Algorithm, clusterOpt ClusterOptions) (*Clustering, error) {
	return ClusterDirectedCtx(context.Background(), g, method, symOpt, algo, clusterOpt)
}

// ClusterDirectedCtx is ClusterDirected with cancellation threaded
// through both pipeline stages.
func ClusterDirectedCtx(ctx context.Context, g *DirectedGraph, method SymMethod, symOpt SymmetrizeOptions, algo Algorithm, clusterOpt ClusterOptions) (*Clustering, error) {
	res, _, _, err := ClusterDirectedTraceCtx(ctx, g, method, symOpt, algo, clusterOpt)
	return res, err
}

// ClusterDirectedTraceCtx is ClusterDirectedCtx returning, in
// addition, the symmetrized graph (nil when the algorithm clusters the
// directed graph directly) and a StageTrace with per-stage wall-clock
// timings. The request is held to the same rules as the daemon's and
// the CLI's (pipeline.NewRun) before either stage starts.
func ClusterDirectedTraceCtx(ctx context.Context, g *DirectedGraph, method SymMethod, symOpt SymmetrizeOptions, algo Algorithm, clusterOpt ClusterOptions) (*Clustering, *UndirectedGraph, *StageTrace, error) {
	sym, err := pipeline.SymmetrizerFor(method)
	if err != nil {
		return nil, nil, nil, err
	}
	cl, err := pipeline.ClustererFor(algo)
	if err != nil {
		return nil, nil, nil, err
	}
	run, err := pipeline.NewRun(sym, symOpt, cl, clusterOpt, g.N())
	if err != nil {
		return nil, nil, nil, err
	}
	return run.Execute(ctx, g, nil)
}

// BestWCut runs the reimplemented Meila–Pentney weighted-cut spectral
// baseline directly on the directed graph (no symmetrization stage).
func BestWCut(g *DirectedGraph, k int, seed int64) (*Clustering, error) {
	return BestWCutCtx(context.Background(), g, k, seed)
}

// BestWCutCtx is BestWCut with cancellation at iteration boundaries of
// the power iteration, Lanczos and k-means stages.
func BestWCutCtx(ctx context.Context, g *DirectedGraph, k int, seed int64) (*Clustering, error) {
	return clusterDirectedOnly(ctx, g, BestWCutAlgo, k, seed)
}

// ZhouSpectralCtx runs the directed-Laplacian spectral baseline of
// Zhou, Huang & Schölkopf directly on the directed graph, with
// cancellation at iteration boundaries of the power iteration, Lanczos
// and k-means stages.
func ZhouSpectralCtx(ctx context.Context, g *DirectedGraph, k int, seed int64) (*Clustering, error) {
	return clusterDirectedOnly(ctx, g, ZhouAlgo, k, seed)
}

// clusterDirectedOnly runs a directed-input substrate from the
// registry on g.
func clusterDirectedOnly(ctx context.Context, g *DirectedGraph, algo Algorithm, k int, seed int64) (*Clustering, error) {
	cl, err := pipeline.ClustererFor(algo)
	if err != nil {
		return nil, err
	}
	return cl.Run(ctx, pipeline.Input{G: g}, ClusterOptions{TargetClusters: k, Seed: seed})
}

// Evaluate scores a clustering against ground truth with the paper's
// micro-averaged best-match F-measure (§4.3).
func Evaluate(assign []int, truth *GroundTruth) (*Report, error) {
	return eval.Evaluate(assign, truth)
}

// SignTest runs the paired binomial sign test (§5.6) between two
// clusterings of the same graph, returning discordant counts and the
// one-sided p-value in log10.
func SignTest(assignA, assignB []int, truth *GroundTruth) (*SignTestResult, error) {
	ca, err := eval.CorrectNodes(assignA, truth)
	if err != nil {
		return nil, err
	}
	cb, err := eval.CorrectNodes(assignB, truth)
	if err != nil {
		return nil, err
	}
	return eval.SignTest(ca, cb)
}

// NCut returns the undirected normalised cut of a clustering over a
// symmetric adjacency.
func NCut(u *UndirectedGraph, assign []int) (float64, error) {
	return eval.NCut(u.Adj, assign)
}

// NCutDirected returns the directed normalised cut (Eq. 3) of a
// clustering over a directed graph, under the teleported random walk.
func NCutDirected(g *DirectedGraph, assign []int, teleport float64) (float64, error) {
	return eval.NCutDirected(g.Adj, assign, teleport)
}

// PageRank returns the stationary distribution of the teleported
// random walk on g (teleport 0.05 is the paper's setting).
func PageRank(g *DirectedGraph, teleport float64) ([]float64, error) {
	return walk.PageRank(g.Adj, teleport)
}

// GenerateCitation builds the Cora-like synthetic citation network
// (see DESIGN.md §3 for the substitution rationale).
func GenerateCitation(opt CitationOptions) (*Dataset, error) { return gen.Citation(opt) }

// GenerateWiki builds the Wikipedia-like synthetic hyperlink graph.
func GenerateWiki(opt WikiOptions) (*Dataset, error) { return gen.Wiki(opt) }

// GenerateKronecker builds an R-MAT power-law directed graph (the
// Flickr/LiveJournal scalability substitute; no ground truth).
func GenerateKronecker(opt KroneckerOptions) (*Dataset, error) { return gen.Kronecker(opt) }

// Figure1 returns the paper's Figure 1 idealised 6-node example.
func Figure1() *Dataset { return gen.Figure1() }
