// Package pipeline is the single source of truth for the two stages of
// the paper's framework (Satuluri & Parthasarathy, EDBT 2011):
// symmetrizations and clustering substrates. Every consumer — the
// public symcluster API, cmd/symcluster, symclusterd, and the
// experiments harness — resolves stage names, aliases, option
// validation, admission cost models, and dispatch through the
// registries in this package, so adding a fifth symmetrization or a
// seventh clusterer is one registration here rather than a per-layer
// scavenger hunt.
//
// Each stage is described by an interface:
//
//   - Symmetrizer: a named transformation of a directed graph into an
//     undirected one, with option validation and a byte cost model
//     used by symclusterd's admission control.
//   - Clusterer: a named clustering substrate with RequiresK /
//     AcceptsDirected capability flags. Undirected substrates consume
//     the symmetrized graph; directed ones (BestWCut, Zhou) consume
//     the original directed graph and bypass the symmetrize stage.
//
// The two stages are composed in this package and nowhere else
// (run.go): Resolve turns a wire request into a validated Run, and
// Run.Execute runs it, recording a StageTrace (per-stage wall clock and
// symmetrized output size) that the CLI's -json output and the daemon's
// responses/metrics surface.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"symcluster/internal/core"
	"symcluster/internal/graph"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
)

// SymOptions configures a symmetrization (α, β, pruning, …). It is the
// core package's option struct; the registry layers validation on top.
type SymOptions = core.Options

// ClusterOptions configures a clustering substrate.
type ClusterOptions struct {
	// TargetClusters is the desired number of clusters. Metis, Graclus
	// and the spectral substrates honour it exactly; MLR-MCL uses it to
	// pick an inflation (its cluster count is inherently approximate —
	// paper §4.2).
	TargetClusters int
	// Inflation overrides the MLR-MCL inflation parameter directly
	// (> 1). When set, TargetClusters is ignored for MLR-MCL.
	Inflation float64
	// Seed drives all randomised choices.
	Seed int64
	// MCLMaxIter caps MLR-MCL expansion iterations (0 selects the
	// default 40). The experiments harness uses 30 to mirror its
	// historical settings.
	MCLMaxIter int
	// MCLTolerance is the MLR-MCL convergence tolerance (0 selects the
	// default 1e-4).
	MCLTolerance float64
}

// Result is a clustering: a node → cluster assignment and the cluster
// count.
type Result struct {
	Assign []int
	K      int
}

// Input carries both views of the graph to a clusterer. Undirected
// substrates read U (the symmetrized graph); directed substrates read
// G (the original directed graph); Hier is the memo of U's cache entry.
type Input struct {
	U    *graph.Undirected
	G    *graph.Directed
	Hier *multilevel.Memo
}

// StageTrace records per-stage observability for one pipeline run:
// wall-clock of each stage and the size of the symmetrized output. It
// appears in cmd/symcluster -json output, symclusterd responses, and
// feeds the symclusterd_stage_seconds metrics.
type StageTrace struct {
	// Symmetrizer and Clusterer are the canonical stage names. The
	// symmetrizer is empty when a directed substrate bypassed the
	// symmetrize stage.
	Symmetrizer string `json:"symmetrizer,omitempty"`
	Clusterer   string `json:"clusterer"`
	// SymmetrizeMillis and ClusterMillis are per-stage wall clock.
	SymmetrizeMillis float64 `json:"symmetrize_millis"`
	ClusterMillis    float64 `json:"cluster_millis"`
	// SymmetrizedNNZ is the stored nonzero count of the symmetrized
	// adjacency (0 when the stage was bypassed).
	SymmetrizedNNZ int `json:"symmetrized_nnz"`
	// CacheHit reports that the symmetrized graph came from Execute's
	// memo rather than from running the symmetrizer.
	CacheHit bool `json:"-"`
	// Spans is the root of the span tree for this run when tracing was
	// active (a trace installed in ctx by the caller), nil otherwise.
	// The tree nests request → stage → kernel iteration spans.
	Spans *obs.SpanNode `json:"spans,omitempty"`
}

// GraphStats is the degree profile a cost model consumes: the sizes
// are computed once per graph (O(nnz)) and reused across requests.
type GraphStats struct {
	// Nodes and Edges are the directed graph's dimensions.
	Nodes int
	Edges int64
	// CouplingFlops = Σ_j colCount(j)² bounds nnz(AAᵀ); CocitFlops =
	// Σ_i rowCount(i)² bounds nnz(AᵀA). Both SpGEMM flop bounds; the
	// models additionally cap them at the dense n².
	CouplingFlops int64
	CocitFlops    int64
	// K is the requested cluster count for the run under estimation
	// (0 when unspecified).
	K int
}

// StatsFor computes the degree-profile statistics of a directed graph.
func StatsFor(g *graph.Directed) GraphStats {
	gs := GraphStats{Nodes: g.N(), Edges: int64(g.M())}
	for _, c := range g.Adj.ColCounts() {
		gs.CouplingFlops += int64(c) * int64(c)
	}
	for _, r := range g.Adj.RowCounts() {
		gs.CocitFlops += int64(r) * int64(r)
	}
	return gs
}

// WithK returns a copy of the stats annotated with a requested cluster
// count, for per-request cost estimation.
func (gs GraphStats) WithK(k int) GraphStats {
	gs.K = k
	return gs
}

// Symmetrizer is one registered symmetrization: the first stage of the
// pipeline.
type Symmetrizer interface {
	// Method is the library enum value this entry implements.
	Method() core.Method
	// Name is the canonical wire name ("dd", "bib", "aat", "rw") used
	// by CLI flags, the HTTP API, and cache keys.
	Name() string
	// Aliases are additional accepted wire names (long forms like
	// "degree-discounted"). The lowercased display name always parses
	// too.
	Aliases() []string
	// Display is the name used in the paper's figures.
	Display() string
	// Describe is a one-line human description for generated help text.
	Describe() string
	// Validate rejects out-of-range options before any work is queued.
	Validate(opt SymOptions) error
	// Checkpointable reports whether Run's kernels save/restore
	// mid-iteration snapshots through a context-carried
	// checkpoint.Sink (the random-walk power iteration does).
	Checkpointable() bool
	// Run validates opt and symmetrizes g. Cancellation is polled at
	// iteration and row-block boundaries of the kernels underneath.
	Run(ctx context.Context, g *graph.Directed, opt SymOptions) (*graph.Undirected, error)
	// CostModel upper-bounds the peak bytes Run may allocate on a
	// graph with the given stats (admission control).
	CostModel(gs GraphStats) int64
	// OutOfCoreCost upper-bounds the heap-resident bytes of an
	// out-of-core Run — the input, its transpose and the scaled factor
	// matrices live in memory-mapped files, so only the (pruned)
	// products and a few dense vectors stay resident. ok reports
	// whether the method supports the out-of-core path at all; when
	// false the estimate is CostModel and admission must not route the
	// job out of core.
	OutOfCoreCost(gs GraphStats) (est int64, ok bool)
}

// Algorithm identifies a clustering substrate. The public
// symcluster.Algorithm type aliases it.
type Algorithm int

// The registered clustering substrates, in registry order: the three
// undirected substrates of the paper's framework, textbook undirected
// spectral clustering, and the two directed spectral baselines.
const (
	// MLRMCL is multi-level regularized Markov clustering (Satuluri &
	// Parthasarathy, KDD 2009).
	MLRMCL Algorithm = iota
	// Metis is a multilevel k-way partitioner by recursive bisection
	// with Fiduccia–Mattheyses refinement (Karypis & Kumar, 1999).
	Metis
	// Graclus is a multilevel weighted-kernel-k-means normalised-cut
	// clusterer (Dhillon, Guan & Kulis, TPAMI 2007).
	Graclus
	// SpectralNCut is classic undirected spectral clustering
	// (normalised-cut relaxation + k-means).
	SpectralNCut
	// BestWCut is the directed weighted-cut spectral baseline of Meila
	// & Pentney; it consumes the directed graph.
	BestWCut
	// Zhou is the directed-Laplacian spectral baseline of Zhou, Huang
	// & Schölkopf; it consumes the directed graph.
	Zhou
)

// String returns the substrate's conventional display name, resolved
// through the registry.
func (a Algorithm) String() string {
	if cl, err := ClustererFor(a); err == nil {
		return cl.Display()
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// RequiresK reports whether the substrate needs an explicit target
// cluster count (false for unknown ids).
func (a Algorithm) RequiresK() bool {
	cl, err := ClustererFor(a)
	return err == nil && cl.RequiresK()
}

// AcceptsDirected reports whether the substrate consumes the directed
// graph directly, bypassing the symmetrize stage.
func (a Algorithm) AcceptsDirected() bool {
	cl, err := ClustererFor(a)
	return err == nil && cl.AcceptsDirected()
}

// Clusterer is one registered clustering substrate: the second stage
// of the pipeline.
type Clusterer interface {
	// ID is the enum value this entry implements.
	ID() Algorithm
	// Name is the canonical wire name ("mcl", "metis", "graclus",
	// "spectral", "bestwcut", "zhou").
	Name() string
	// Aliases are additional accepted wire names.
	Aliases() []string
	// Display is the name used in the paper's legends.
	Display() string
	// Describe is a one-line human description for generated help text.
	Describe() string
	// RequiresK reports whether TargetClusters >= 1 is mandatory.
	RequiresK() bool
	// AcceptsDirected reports whether Run consumes Input.G (the
	// directed graph) instead of Input.U, bypassing symmetrization.
	AcceptsDirected() bool
	// Checkpointable reports whether Run's kernels save/restore
	// mid-iteration snapshots through a context-carried
	// checkpoint.Sink (the MLR-MCL flow iteration does).
	Checkpointable() bool
	// Validate rejects out-of-range options before any work is queued.
	Validate(opt ClusterOptions) error
	// Run validates opt and clusters the input. Cancellation is polled
	// at iteration boundaries of the substrate.
	Run(ctx context.Context, in Input, opt ClusterOptions) (*Result, error)
	// CostModel upper-bounds the peak bytes Run may allocate on a
	// graph with the given stats (admission control). It excludes the
	// symmetrized input itself, which the symmetrizer's model covers.
	CostModel(gs GraphStats) int64
}

// The registry entry slices (symRegistry, cluRegistry) live in
// symmetrizers.go and clusterers.go as initialized package variables;
// Go completes all variable initialization before init() runs, so the
// lookup indices here are derived from fully populated registries.
var (
	symByName map[string]Symmetrizer
	cluByName map[string]Clusterer
	symByID   map[core.Method]Symmetrizer
	cluByID   map[Algorithm]Clusterer
)

func init() {
	symByName = make(map[string]Symmetrizer)
	symByID = make(map[core.Method]Symmetrizer)
	for _, s := range symRegistry {
		registerNames(symByName, s.Name(), s.Aliases(), s.Display(), s)
		if _, dup := symByID[s.Method()]; dup {
			panic(fmt.Sprintf("pipeline: duplicate symmetrizer for method %v", s.Method()))
		}
		symByID[s.Method()] = s
	}
	cluByName = make(map[string]Clusterer)
	cluByID = make(map[Algorithm]Clusterer)
	for _, c := range cluRegistry {
		registerNames(cluByName, c.Name(), c.Aliases(), c.Display(), c)
		if _, dup := cluByID[c.ID()]; dup {
			panic(fmt.Sprintf("pipeline: duplicate clusterer for id %d", int(c.ID())))
		}
		cluByID[c.ID()] = c
	}
}

// registerNames indexes an entry under its canonical name, aliases,
// and lowercased display name, panicking when two entries claim the
// same spelling so a bad registration cannot ship.
func registerNames[T any](idx map[string]T, name string, aliases []string, display string, entry T) {
	seen := make(map[string]bool)
	for _, n := range append([]string{name, display}, aliases...) {
		n = strings.ToLower(n)
		if seen[n] {
			continue
		}
		seen[n] = true
		if _, dup := idx[n]; dup {
			panic(fmt.Sprintf("pipeline: wire name %q registered twice", n))
		}
		idx[n] = entry
	}
}

// Symmetrizers returns the registered symmetrizations in the paper's
// plot order (the iteration order for sweeps and generated docs).
func Symmetrizers() []Symmetrizer { return append([]Symmetrizer(nil), symRegistry...) }

// Clusterers returns the registered substrates in registry order.
func Clusterers() []Clusterer { return append([]Clusterer(nil), cluRegistry...) }

// AlgorithmIDs returns the ids of every registered substrate in
// registry order.
func AlgorithmIDs() []Algorithm {
	ids := make([]Algorithm, len(cluRegistry))
	for i, c := range cluRegistry {
		ids[i] = c.ID()
	}
	return ids
}

// Methods returns the core.Method of every registered symmetrizer in
// registry order.
func Methods() []core.Method {
	ms := make([]core.Method, len(symRegistry))
	for i, s := range symRegistry {
		ms[i] = s.Method()
	}
	return ms
}

// MethodNames returns the canonical wire names of every symmetrizer in
// registry order (for flag help and docs).
func MethodNames() []string {
	names := make([]string, len(symRegistry))
	for i, s := range symRegistry {
		names[i] = s.Name()
	}
	return names
}

// AlgorithmNames returns the canonical wire names of every substrate
// in registry order.
func AlgorithmNames() []string {
	names := make([]string, len(cluRegistry))
	for i, c := range cluRegistry {
		names[i] = c.Name()
	}
	return names
}

// LookupSymmetrizer resolves a wire name (canonical, alias, or display
// name; case-insensitive) to its registry entry. Unknown names return
// an error listing the valid set, generated from the registry so it
// can never go stale.
func LookupSymmetrizer(name string) (Symmetrizer, error) {
	if s, ok := symByName[strings.ToLower(strings.TrimSpace(name))]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown method %q (valid: %s)", name, knownNames(symByName, MethodNames()))
}

// LookupClusterer resolves a wire name to its registry entry, with the
// same dynamic unknown-name error as LookupSymmetrizer.
func LookupClusterer(name string) (Clusterer, error) {
	if c, ok := cluByName[strings.ToLower(strings.TrimSpace(name))]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (valid: %s)", name, knownNames(cluByName, AlgorithmNames()))
}

// SymmetrizerFor resolves a library enum value to its registry entry.
func SymmetrizerFor(m core.Method) (Symmetrizer, error) {
	if s, ok := symByID[m]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown symmetrization method %v (valid: %s)", m, strings.Join(MethodNames(), ", "))
}

// ClustererFor resolves an Algorithm id to its registry entry.
func ClustererFor(a Algorithm) (Clusterer, error) {
	if c, ok := cluByID[a]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("unknown algorithm %v (valid: %s)", int(a), strings.Join(AlgorithmNames(), ", "))
}

// knownNames renders "canonical names; aliases: ..." for unknown-name
// errors: canonical first in registry order, then every other accepted
// spelling sorted.
func knownNames[T any](idx map[string]T, canonical []string) string {
	isCanonical := make(map[string]bool, len(canonical))
	for _, n := range canonical {
		isCanonical[n] = true
	}
	var aliases []string
	for n := range idx {
		if !isCanonical[n] {
			aliases = append(aliases, n)
		}
	}
	sort.Strings(aliases)
	out := strings.Join(canonical, ", ")
	if len(aliases) > 0 {
		out += "; aliases: " + strings.Join(aliases, ", ")
	}
	return out
}

// EstimateJobBytes bounds the peak extra memory one pipeline run may
// allocate: the symmetrizer's working set plus the substrate's. sym
// may be nil for directed substrates, whose runs never symmetrize.
func EstimateJobBytes(sym Symmetrizer, cl Clusterer, gs GraphStats) int64 {
	var b int64
	if sym != nil && !cl.AcceptsDirected() {
		b += sym.CostModel(gs)
	}
	return b + cl.CostModel(gs)
}
