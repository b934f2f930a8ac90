package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"symcluster/internal/core"
	"symcluster/internal/graph"
)

// symEntry implements Symmetrizer from plain data plus a cost model.
// Dispatch to the math kernels goes through core.SymmetrizeCtx, so the
// kernel wiring stays next to the kernels while this registry owns
// names, validation, and admission bounds.
type symEntry struct {
	method   core.Method
	name     string
	aliases  []string
	display  string
	describe string
	validate func(SymOptions) error
	ckpt     bool
	cost     func(GraphStats) int64
	// oocCost, when set, marks the method out-of-core capable and
	// bounds the heap-resident bytes of an out-of-core run (the mapped
	// operands excluded). Nil means the method cannot run out of core.
	oocCost func(GraphStats) int64
}

func (e *symEntry) Method() core.Method  { return e.method }
func (e *symEntry) Name() string         { return e.name }
func (e *symEntry) Aliases() []string    { return append([]string(nil), e.aliases...) }
func (e *symEntry) Display() string      { return e.display }
func (e *symEntry) Describe() string     { return e.describe }
func (e *symEntry) Checkpointable() bool { return e.ckpt }

func (e *symEntry) Validate(opt SymOptions) error {
	if err := validateSymCommon(opt); err != nil {
		return err
	}
	if e.validate != nil {
		return e.validate(opt)
	}
	return nil
}

func (e *symEntry) Run(ctx context.Context, g *graph.Directed, opt SymOptions) (*graph.Undirected, error) {
	if err := e.Validate(opt); err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	return core.SymmetrizeCtx(ctx, g, e.method, opt)
}

func (e *symEntry) CostModel(gs GraphStats) int64 { return e.cost(gs) }

func (e *symEntry) OutOfCoreCost(gs GraphStats) (int64, bool) {
	if e.oocCost == nil {
		return e.cost(gs), false
	}
	return e.oocCost(gs), true
}

// validateSymCommon checks the option ranges shared by every
// symmetrization. Fields a method ignores are still range-checked, so
// a nonsense request is rejected identically whichever method it names.
func validateSymCommon(opt SymOptions) error {
	if opt.Alpha < 0 || opt.Alpha > 1 || opt.Beta < 0 || opt.Beta > 1 {
		return fmt.Errorf("alpha and beta must lie in [0, 1] (got α=%v β=%v)", opt.Alpha, opt.Beta)
	}
	if opt.Threshold < 0 {
		return fmt.Errorf("threshold must be non-negative (got %v)", opt.Threshold)
	}
	if opt.Teleport < 0 || opt.Teleport >= 1 {
		return fmt.Errorf("teleport must lie in [0, 1) (got %v)", opt.Teleport)
	}
	return nil
}

// csrBytes is the resident size of an n-row CSR matrix with nnz
// entries: an (n+1)-element int64 row-pointer array plus an int32
// column index and a float64 value per entry.
func csrBytes(n int, nnz int64) int64 {
	return 8*int64(n+1) + 12*nnz
}

// The symmetrizer cost models are deliberate upper bounds, expressed
// in CSR bytes (the dominant allocation of every method). For the
// product-based symmetrizations the output nonzero count is bounded by
// the SpGEMM flop counts in GraphStats, capped at the dense n².
// Pruning only shrinks the true working set, so an admitted request is
// safe and a rejected one reports the worst case it could have
// reached.

// productSymBytes bounds Bibliometric and DegreeDiscounted under the
// fused execution layer: the diagonal scalings fold into the product
// kernels, so no scaled factor clone is ever allocated — the only
// input-shaped intermediates are the one Aᵀ shared by both terms and
// the per-entry vectors a product holds (productDriverBytes). Both
// products live at once while they are summed, and the sum is bounded
// by their combined size. DegreeDiscounted only rescales the terms, so
// its sparsity bound matches Bibliometric's. While a product is formed
// the tile-parallel driver holds productDriverBytes beside it.
func productSymBytes(gs GraphStats) int64 {
	dense := int64(gs.Nodes) * int64(gs.Nodes)
	coupling := min(gs.CouplingFlops, dense)
	cocit := min(gs.CocitFlops, dense)
	total := min(coupling+cocit, dense)
	transpose := csrBytes(gs.Nodes, gs.Edges)
	return transpose + csrBytes(gs.Nodes, coupling) + csrBytes(gs.Nodes, cocit) + csrBytes(gs.Nodes, total) +
		productDriverBytes(gs, max(coupling, cocit))
}

// productDriverBytes is what the engine holds while it forms one
// self-product of at most nnz entries, besides the result: two vectors
// as long as the operand, its pre-scaled values (float64) and its entry
// offsets (int32); one accumulator — sums,
// marks and the candidate list, 16 bytes a column, each sized once (a
// product without a top-k never allocates the selection keys) — for each
// of at most GOMAXPROCS workers; and, with more than one worker, the
// per-tile staging the rows are flushed into before they are stitched —
// one more copy of the product's entries. The same accounting as the mcl
// clusterer's model.
func productDriverBytes(gs GraphStats, nnz int64) int64 {
	return 12*gs.Edges + int64(runtime.GOMAXPROCS(0))*16*int64(gs.Nodes) + 12*nnz
}

// oocProductSymBytes bounds the heap-resident bytes of an out-of-core
// product symmetrization. The input and its transpose are memory-mapped
// files (file-backed pages the OS evicts, so they do not count against
// the heap) that the fused kernels stream rows from — the scalings fold
// into the kernels, so there are no scaled-factor files either; what
// stays resident is the external-sort buffer, the degree/discount
// vectors, what the product driver holds (productDriverBytes: the
// per-entry vectors are heap even when their operand is mapped), and —
// dominating everything — the pruned products themselves. An unpruned
// product is as large out-of-core as in-core, which is why this is
// honest about the worst case being no smaller than productSymBytes
// minus the transpose the in-core path holds.
func oocProductSymBytes(gs GraphStats) int64 {
	sortAndVectors := int64(64<<20) + 64*int64(gs.Nodes)
	return sortAndVectors + csrBytes(gs.Nodes, 2*gs.Edges) + productDriverBytes(gs, 2*gs.Edges)
}

// symRegistry holds the four symmetrizations of the paper in its
// plots' order. To add a fifth, append an entry here (and its kernel
// in internal/core): every consumer — flag help, HTTP parsing,
// admission control, experiment sweeps, docs tests — picks it up from
// the registry.
var symRegistry = []Symmetrizer{
	&symEntry{
		method:   core.DegreeDiscounted,
		name:     "dd",
		aliases:  []string{"degree-discounted", "degreediscounted"},
		display:  "DegreeDiscounted",
		describe: "degree-discounted bibliometric similarity, the paper's proposal (§3.4)",
		cost:     productSymBytes,
		oocCost:  oocProductSymBytes,
	},
	&symEntry{
		method:   core.Bibliometric,
		name:     "bib",
		aliases:  []string{"bibliometric", "bibcoupling"},
		display:  "Bibliometric",
		describe: "U = AAᵀ + AᵀA, bibliographic coupling + co-citation (§3.3)",
		cost:     productSymBytes,
		oocCost:  oocProductSymBytes,
	},
	&symEntry{
		method:   core.AAT,
		name:     "aat",
		aliases:  []string{"a+at", "sum"},
		display:  "A+A'",
		describe: "U = A + Aᵀ, the implicit baseline (§3.1)",
		cost: func(gs GraphStats) int64 {
			// U = A + Aᵀ: at most 2·nnz entries.
			return csrBytes(gs.Nodes, 2*gs.Edges)
		},
	},
	&symEntry{
		method:   core.RandomWalk,
		name:     "rw",
		aliases:  []string{"random-walk", "randomwalk"},
		display:  "RandomWalk",
		describe: "U = (ΠP + PᵀΠ)/2 under the teleported random walk (§3.2)",
		ckpt:     true,
		cost: func(gs GraphStats) int64 {
			// Transition matrix + (ΠP + PᵀΠ)/2 (same structure as
			// A + Aᵀ) plus a handful of n-length iteration vectors.
			return csrBytes(gs.Nodes, gs.Edges) + csrBytes(gs.Nodes, 2*gs.Edges) + 32*int64(gs.Nodes)
		},
	},
}
