package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"symcluster/internal/core"
	"symcluster/internal/graph"
)

// Symmetrizer is one registered symmetrization: the first stage of the
// pipeline. Its hooks are unexported, so only this package builds a
// working entry. Dispatch to the math kernels goes through
// core.SymmetrizeCtx, so the kernel wiring stays next to the kernels
// while this registry owns names, validation, and admission bounds.
type Symmetrizer struct {
	// Method is the library enum value this entry implements; its
	// String is the display name the paper's figures use.
	Method core.Method
	// Name is the canonical wire name ("dd", "bib", "aat", "rw") used
	// by CLI flags, the HTTP API, and cache keys.
	Name string
	// Checkpointable reports whether Run's kernels save/restore
	// mid-iteration snapshots through a context-carried
	// checkpoint.Sink (the random-walk power iteration does).
	Checkpointable bool
	// OutOfCore reports whether admission may route a job over the
	// in-core budget to the out-of-core path, where the input and its
	// transpose live in memory-mapped files and the run meters its own
	// heap (core.OutOfCoreConfig.MaxResidentBytes).
	OutOfCore bool

	// aliases are wire names accepted besides Name and the lowercased
	// display name.
	aliases []string
	// cost upper-bounds the peak bytes Run may allocate on a graph with
	// the given stats (admission control).
	cost func(GraphStats) int64
}

// spellings are the wire names the entry accepts, canonical first.
func (s *Symmetrizer) spellings() []string {
	return append([]string{s.Name, strings.ToLower(s.Method.String())}, s.aliases...)
}

// Validate rejects out-of-range options before any work is queued.
// Fields a method ignores are still range-checked, so a nonsense
// request is rejected identically whichever method it names.
func (s *Symmetrizer) Validate(opt SymOptions) error {
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

// Run validates opt and symmetrizes g. Cancellation is polled at
// iteration and row-block boundaries of the kernels underneath.
func (s *Symmetrizer) Run(ctx context.Context, g *graph.Directed, opt SymOptions) (*graph.Undirected, error) {
	if err := s.Validate(opt); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return core.SymmetrizeCtx(ctx, g, s.Method, opt)
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

// symRegistry holds the four symmetrizations of the paper in its
// plots' order. To add a fifth, append an entry here (and its kernel
// in internal/core): every consumer — flag help, HTTP parsing,
// admission control, experiment sweeps, docs tests — picks it up from
// the registry.
var symRegistry = []*Symmetrizer{
	{
		Method:    core.DegreeDiscounted,
		Name:      "dd",
		aliases:   []string{"degree-discounted"},
		cost:      productSymBytes,
		OutOfCore: true,
	},
	{
		Method:    core.Bibliometric,
		Name:      "bib",
		aliases:   []string{"bibcoupling"},
		cost:      productSymBytes,
		OutOfCore: true,
	},
	{
		Method:  core.AAT,
		Name:    "aat",
		aliases: []string{"a+at", "sum"},
		cost: func(gs GraphStats) int64 {
			// U = A + Aᵀ: at most 2·nnz entries.
			return csrBytes(gs.Nodes, 2*gs.Edges)
		},
	},
	{
		Method:         core.RandomWalk,
		Name:           "rw",
		aliases:        []string{"random-walk"},
		Checkpointable: true,
		cost: func(gs GraphStats) int64 {
			// Transition matrix + (ΠP + PᵀΠ)/2 (same structure as
			// A + Aᵀ) plus a handful of n-length iteration vectors.
			return csrBytes(gs.Nodes, gs.Edges) + csrBytes(gs.Nodes, 2*gs.Edges) + 32*int64(gs.Nodes)
		},
	},
}
