package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"symcluster/internal/graclus"
	"symcluster/internal/mcl"
	"symcluster/internal/metis"
	"symcluster/internal/spectral"
)

// cluEntry implements Clusterer from plain data plus run/cost
// closures. This is the only place in the module that dispatches on a
// clustering substrate.
type cluEntry struct {
	id       Algorithm
	name     string
	aliases  []string
	display  string
	describe string
	requireK bool
	directed bool
	ckpt     bool
	run      func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error)
	cost     func(GraphStats) int64
}

func (e *cluEntry) ID() Algorithm         { return e.id }
func (e *cluEntry) Name() string          { return e.name }
func (e *cluEntry) Aliases() []string     { return append([]string(nil), e.aliases...) }
func (e *cluEntry) Display() string       { return e.display }
func (e *cluEntry) Describe() string      { return e.describe }
func (e *cluEntry) RequiresK() bool       { return e.requireK }
func (e *cluEntry) AcceptsDirected() bool { return e.directed }
func (e *cluEntry) Checkpointable() bool  { return e.ckpt }

func (e *cluEntry) Validate(opt ClusterOptions) error {
	if opt.TargetClusters < 0 {
		return fmt.Errorf("%s: target cluster count must be non-negative (got %d)", e.name, opt.TargetClusters)
	}
	if e.requireK && opt.TargetClusters < 1 {
		return fmt.Errorf("%s requires a target cluster count >= 1", e.display)
	}
	if opt.Inflation != 0 && opt.Inflation <= 1 {
		return fmt.Errorf("%s: inflation must be > 1 when set (got %v)", e.name, opt.Inflation)
	}
	return nil
}

func (e *cluEntry) Run(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
	if err := e.Validate(opt); err != nil {
		return nil, err
	}
	if e.directed {
		if in.G == nil {
			return nil, fmt.Errorf("%s clusters the directed graph, but none was provided", e.display)
		}
	} else if in.U == nil {
		return nil, fmt.Errorf("%s clusters a symmetrized graph, but none was provided", e.display)
	}
	return e.run(ctx, in, opt)
}

func (e *cluEntry) CostModel(gs GraphStats) int64 { return e.cost(gs) }

// inflationForTarget maps a desired cluster count to an MLR-MCL
// inflation value. The mapping is a heuristic fit: granularity grows
// with inflation, so we interpolate between gentle (1.2) and
// aggressive (3.0) based on the requested clusters-per-node ratio.
func inflationForTarget(n, target int) float64 {
	if target <= 0 || n <= 0 {
		return 2.0
	}
	ratio := float64(target) / float64(n)
	switch {
	case ratio <= 0.002:
		return 1.2
	case ratio <= 0.01:
		return 1.5
	case ratio <= 0.03:
		return 2.0
	case ratio <= 0.08:
		return 2.5
	default:
		return 3.0
	}
}

// mclMaxPerColumn is the per-column entry budget the mcl clusterer runs
// R-MCL with, and the nonzeros per column its cost model assumes.
const mclMaxPerColumn = 30

// spectralEmbeddingBytes bounds the dense allocations of the spectral
// substrates: the n×k embedding, the Lanczos basis (at most
// min(n, 2k+40) vectors of length n), and k-means scratch.
func spectralEmbeddingBytes(gs GraphStats) int64 {
	k := int64(gs.K)
	if k < 1 {
		k = 1
	}
	basis := 2*k + 40
	if basis > int64(gs.Nodes) {
		basis = int64(gs.Nodes)
	}
	return 8*int64(gs.Nodes)*(k+basis) + 32*int64(gs.Nodes)
}

// multilevelBytes bounds the Metis/Graclus coarsening hierarchies. A
// level keeps the arrays its contraction was assembled in, 12 bytes per
// entry of the finer level (16 while it is built; 28 before the builder
// lost its scatter copy), so geometrically shrinking levels sum to ~2×
// the clustered graph, taken at 2·edges entries. A pruned product can
// have more (17 k from 4.6 k edges on the 540-node benchmark graph);
// the symmetrizer's flop-bound model in the same job estimate absorbs
// that: TestJobEstimateCoversMultilevelHeld. A Graclus request served
// from its cache entry's kept hierarchy holds nothing new (the cache is
// charged for it), so the estimate stays the ceiling: a request that builds.
func multilevelBytes(gs GraphStats) int64 {
	return 2 * csrBytes(gs.Nodes, 2*gs.Edges)
}

// cluRegistry holds the six substrates: the paper's three undirected
// clusterers, textbook undirected spectral clustering, and the two
// directed spectral baselines (which bypass the symmetrize stage). To
// add a seventh, append an entry here: parsing, flag help, admission
// bounds, and the daemon's capability set all follow.
var cluRegistry = []Clusterer{
	&cluEntry{
		id:       MLRMCL,
		name:     "mcl",
		aliases:  []string{"mlrmcl"},
		display:  "MLR-MCL",
		describe: "multi-level regularized Markov clustering (KDD 2009)",
		ckpt:     true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			inflation := opt.Inflation
			if inflation <= 1 {
				inflation = inflationForTarget(in.U.N(), opt.TargetClusters)
			}
			maxIter := opt.MCLMaxIter
			if maxIter <= 0 {
				maxIter = 40
			}
			tol := opt.MCLTolerance
			if tol <= 0 {
				tol = 1e-4
			}
			res, err := mcl.ClusterCtx(ctx, in.U.Adj, mcl.Options{
				Inflation:      inflation,
				Multilevel:     in.U.N() > 5000,
				MaxIter:        maxIter,
				MaxPerColumn:   mclMaxPerColumn,
				ConvergenceTol: tol,
				Seed:           opt.Seed,
			})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: func(gs GraphStats) int64 {
			// What one R-MCL solve holds at its peak, every column at its
			// MaxPerColumn budget: the two flow buffers it swaps between
			// and, with more than one expansion worker, a flow's worth of
			// per-tile staging — each allowed the up-to-2× capacity that
			// growing by append leaves (one worker appends into the flow
			// buffers and stages nothing; several size the buffers exactly
			// and append into the staging), so four flows bound both — plus
			// one accumulator (sums, marks, the candidate list and the top-k
			// selection keys: 24 bytes a column, each sized once) for each
			// of at most GOMAXPROCS workers, and the Expander's per-row τ
			// vector. Measured as the live heap at an iteration boundary
			// (a collection forced from a checkpoint sink, the snapshot's
			// own bytes taken out) with every column full, two workers:
			// 479 KB held at 540 nodes against 825 KB estimated, 4.49 MB
			// against 9.17 MB at 6 000.
			n := int64(gs.Nodes)
			return 4*csrBytes(gs.Nodes, mclMaxPerColumn*n) + int64(runtime.GOMAXPROCS(0))*24*n + 8*n
		},
	},
	&cluEntry{
		id:       Metis,
		name:     "metis",
		aliases:  []string{"kway"},
		display:  "Metis",
		describe: "multilevel k-way partitioning by recursive bisection (Karypis & Kumar)",
		requireK: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := metis.PartitionCtx(ctx, in.U.Adj, opt.TargetClusters, metis.Options{Seed: opt.Seed})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: multilevelBytes,
	},
	&cluEntry{
		id:       Graclus,
		name:     "graclus",
		aliases:  []string{"kernel-kmeans"},
		display:  "Graclus",
		describe: "multilevel weighted-kernel-k-means normalised cut (Dhillon et al.)",
		requireK: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := graclus.ClusterCtx(ctx, in.U.Adj, opt.TargetClusters, graclus.Options{Seed: opt.Seed, Hier: in.Hier})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: multilevelBytes,
	},
	&cluEntry{
		id:       SpectralNCut,
		name:     "spectral",
		aliases:  []string{"ncut", "spectral-ncut"},
		display:  "Spectral",
		describe: "undirected normalised-cut spectral clustering (relaxation + k-means)",
		requireK: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := spectral.NormalizedCutCtx(ctx, in.U.Adj, opt.TargetClusters, spectral.NormalizedCutOptions{
				KMeans:  spectral.KMeansOptions{Seed: opt.Seed},
				Lanczos: spectral.LanczosOptions{Seed: opt.Seed},
			})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: spectralEmbeddingBytes,
	},
	&cluEntry{
		id:       BestWCut,
		name:     "bestwcut",
		aliases:  []string{"best-wcut", "wcut"},
		display:  "BestWCut",
		describe: "directed weighted-cut spectral baseline (Meila & Pentney); bypasses symmetrization",
		requireK: true,
		directed: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := spectral.BestWCutCtx(ctx, in.G.Adj, opt.TargetClusters, spectral.BestWCutOptions{
				KMeans:  spectral.KMeansOptions{Seed: opt.Seed},
				Lanczos: spectral.LanczosOptions{Seed: opt.Seed},
			})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: func(gs GraphStats) int64 {
			// The symmetrized weighted-cut operator has A + Aᵀ structure
			// plus the dense spectral working set.
			return csrBytes(gs.Nodes, 2*gs.Edges) + spectralEmbeddingBytes(gs)
		},
	},
	&cluEntry{
		id:       Zhou,
		name:     "zhou",
		aliases:  []string{"zhou-directed", "directed-laplacian"},
		display:  "Zhou",
		describe: "directed-Laplacian spectral baseline (Zhou, Huang & Schölkopf); bypasses symmetrization",
		requireK: true,
		directed: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := spectral.ZhouDirectedCtx(ctx, in.G.Adj, opt.TargetClusters, spectral.ZhouOptions{
				KMeans:  spectral.KMeansOptions{Seed: opt.Seed},
				Lanczos: spectral.LanczosOptions{Seed: opt.Seed},
			})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: func(gs GraphStats) int64 {
			// Transition matrix + teleported-walk vectors + dense
			// spectral working set.
			return csrBytes(gs.Nodes, gs.Edges) + spectralEmbeddingBytes(gs) + 32*int64(gs.Nodes)
		},
	},
}
