package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"symcluster/internal/graclus"
	"symcluster/internal/mcl"
	"symcluster/internal/metis"
	"symcluster/internal/spectral"
)

// Clusterer is one registered clustering substrate: the second stage
// of the pipeline. Its hooks are unexported, so only this package
// builds a working entry; the registry below is the only place in the
// module that dispatches on a clustering substrate.
type Clusterer struct {
	// Name is the canonical wire name ("mcl", "metis", "graclus",
	// "spectral", "bestwcut", "zhou").
	Name string
	// Display is the name used in the paper's legends: the id's String.
	Display string
	// RequiresK reports whether TargetClusters >= 1 is mandatory.
	RequiresK bool
	// AcceptsDirected reports whether Run consumes Input.G (the
	// directed graph) instead of Input.U, bypassing symmetrization.
	AcceptsDirected bool

	id Algorithm
	// aliases are wire names accepted besides Name and the lowercased
	// Display.
	aliases []string
	run     func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error)
	// cost upper-bounds the peak bytes run may allocate on a graph with
	// the given stats (admission control). It excludes the symmetrized
	// input itself, which the symmetrizer's cost covers.
	cost func(GraphStats) int64
}

// ID is the enum value this entry implements.
func (c *Clusterer) ID() Algorithm { return c.id }

// spellings are the wire names the entry accepts, canonical first.
func (c *Clusterer) spellings() []string {
	return append([]string{c.Name, strings.ToLower(c.Display)}, c.aliases...)
}

// Validate rejects out-of-range options before any work is queued.
func (c *Clusterer) Validate(opt ClusterOptions) error {
	if opt.TargetClusters < 0 {
		return fmt.Errorf("%s: target cluster count must be non-negative (got %d)", c.Name, opt.TargetClusters)
	}
	if c.RequiresK && opt.TargetClusters < 1 {
		return fmt.Errorf("%s requires a target cluster count >= 1", c.Display)
	}
	if opt.Inflation != 0 && opt.Inflation <= 1 {
		return fmt.Errorf("%s: inflation must be > 1 when set (got %v)", c.Name, opt.Inflation)
	}
	return nil
}

// Run validates opt and clusters the input. Cancellation is polled at
// iteration boundaries of the substrate.
func (c *Clusterer) Run(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
	if err := c.Validate(opt); err != nil {
		return nil, err
	}
	if c.AcceptsDirected {
		if in.G == nil {
			return nil, fmt.Errorf("%s clusters the directed graph, but none was provided", c.Display)
		}
	} else if in.U == nil {
		return nil, fmt.Errorf("%s clusters a symmetrized graph, but none was provided", c.Display)
	}
	return c.run(ctx, in, opt)
}

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
// level keeps the arrays its contraction wrote, 12 bytes per entry of
// the finer level (16 while a triplet builder assembled it), so
// geometrically shrinking levels sum to ~2× the clustered graph, taken
// at 2·edges entries. A pruned product can have more (17 k from 4.6 k
// edges on the 540-node benchmark graph); the symmetrizer's flop-bound
// model in the same job estimate absorbs that:
// TestJobEstimateCoversMultilevelHeld. A Graclus request served
// from its cache entry's kept hierarchy holds nothing new (the cache is
// charged for it); a Metis request served from it builds only its
// subgraphs' hierarchies, one live at a time and each over a part of U.
// So the estimate stays the ceiling: a request that builds.
func multilevelBytes(gs GraphStats) int64 {
	return 2 * csrBytes(gs.Nodes, 2*gs.Edges)
}

// cluRegistry holds the six substrates: the paper's three undirected
// clusterers, textbook undirected spectral clustering, and the two
// directed spectral baselines (which bypass the symmetrize stage). To
// add a seventh, append an entry here: parsing, flag help, admission
// bounds, and the daemon's capability set all follow.
var cluRegistry = []*Clusterer{
	{
		id:      MLRMCL,
		Name:    "mcl",
		aliases: []string{"mlrmcl"},
		Display: "MLR-MCL",
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
			// MaxPerColumn budget: the two flow buffers it swaps between,
			// each sized for every row's top-k slot before the rows are
			// packed and allowed the up-to-2× capacity that growing by
			// append leaves, so four flows bound both; one accumulator for
			// each of at most GOMAXPROCS workers — the sums of a whole row
			// group (8 rows, 8 bytes each), marks, the candidate list and
			// the top-k selection keys: 80 bytes a column, each sized once;
			// the row grouping (hash table, row order, slots and group
			// records: 64 bytes a row) and the Expander's per-row τ vector.
			// Measured as the live heap above the input at an iteration
			// boundary (a collection forced from a checkpoint sink, the
			// snapshot's own bytes taken out; the regularizer included),
			// two workers: 810 KB held on mcl_hot's 540-node graph against
			// 920 KB estimated, 8.64 MB against 10.2 MB on 100 blocks of
			// 60 nodes.
			// Not charged: the workspace a solve ran in, which outlives it
			// in mcl's pool — at most one idle per solve that ran at once,
			// dropped by the GC within two cycles (DESIGN.md §10,
			// "Cost-model contract").
			n := int64(gs.Nodes)
			return 4*csrBytes(gs.Nodes, mclMaxPerColumn*n) + int64(runtime.GOMAXPROCS(0))*80*n + 72*n
		},
	},
	{
		id:        Metis,
		Name:      "metis",
		aliases:   []string{"kway"},
		Display:   "Metis",
		RequiresK: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := metis.PartitionCtx(ctx, in.U.Adj, opt.TargetClusters, metis.Options{Seed: opt.Seed, Hier: in.Hier})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: multilevelBytes,
	},
	{
		id:        Graclus,
		Name:      "graclus",
		aliases:   []string{"kernel-kmeans"},
		Display:   "Graclus",
		RequiresK: true,
		run: func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
			res, err := graclus.ClusterCtx(ctx, in.U.Adj, opt.TargetClusters, graclus.Options{Seed: opt.Seed, Hier: in.Hier})
			if err != nil {
				return nil, err
			}
			return &Result{Assign: res.Assign, K: res.K}, nil
		},
		cost: multilevelBytes,
	},
	{
		id:        SpectralNCut,
		Name:      "spectral",
		aliases:   []string{"ncut", "spectral-ncut"},
		Display:   "Spectral",
		RequiresK: true,
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
	{
		id:              BestWCut,
		Name:            "bestwcut",
		aliases:         []string{"best-wcut", "wcut"},
		Display:         "BestWCut",
		RequiresK:       true,
		AcceptsDirected: true,
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
	{
		id:              Zhou,
		Name:            "zhou",
		aliases:         []string{"zhou-directed", "directed-laplacian"},
		Display:         "Zhou",
		RequiresK:       true,
		AcceptsDirected: true,
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
