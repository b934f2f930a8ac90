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
// Each stage is a registry of plain structs, one literal per entry:
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
// Run.Execute runs it under one span per stage, so the run's span tree
// is its only record: the CLI's -json output and the daemon's responses
// and metrics are read off that tree.
package pipeline

import (
	"fmt"
	"slices"
	"strings"

	"symcluster/internal/core"
	"symcluster/internal/graph"
	"symcluster/internal/multilevel"
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
		return cl.Display
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// RequiresK reports whether the substrate needs an explicit target
// cluster count (false for unknown ids).
func (a Algorithm) RequiresK() bool {
	cl, err := ClustererFor(a)
	return err == nil && cl.RequiresK
}

// AcceptsDirected reports whether the substrate consumes the directed
// graph directly, bypassing the symmetrize stage.
func (a Algorithm) AcceptsDirected() bool {
	cl, err := ClustererFor(a)
	return err == nil && cl.AcceptsDirected
}

// AlgorithmIDs returns the ids of every registered substrate in
// registry order.
func AlgorithmIDs() []Algorithm {
	ids := make([]Algorithm, len(cluRegistry))
	for i, c := range cluRegistry {
		ids[i] = c.id
	}
	return ids
}

// Methods returns the core.Method of every registered symmetrizer in
// registry order, which is the paper's plot order: symcluster.Methods
// and the experiment sweeps iterate it.
func Methods() []core.Method {
	ms := make([]core.Method, len(symRegistry))
	for i, s := range symRegistry {
		ms[i] = s.Method
	}
	return ms
}

// MethodNames returns the canonical wire names of every symmetrizer in
// registry order (for flag help and docs).
func MethodNames() []string {
	names := make([]string, len(symRegistry))
	for i, s := range symRegistry {
		names[i] = s.Name
	}
	return names
}

// AlgorithmNames returns the canonical wire names of every substrate
// in registry order.
func AlgorithmNames() []string {
	names := make([]string, len(cluRegistry))
	for i, c := range cluRegistry {
		names[i] = c.Name
	}
	return names
}

// LookupSymmetrizer resolves a wire name (canonical, alias, or display
// name; case-insensitive) to its registry entry.
func LookupSymmetrizer(name string) (*Symmetrizer, error) { return lookup(symRegistry, "method", name) }

// LookupClusterer resolves a wire name to its registry entry, as
// LookupSymmetrizer does.
func LookupClusterer(name string) (*Clusterer, error) { return lookup(cluRegistry, "algorithm", name) }

// SymmetrizerFor resolves a library enum value to its registry entry.
func SymmetrizerFor(m core.Method) (*Symmetrizer, error) {
	for _, s := range symRegistry {
		if s.Method == m {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown symmetrization method %v (valid: %s)", m, strings.Join(MethodNames(), ", "))
}

// ClustererFor resolves an Algorithm id to its registry entry.
func ClustererFor(a Algorithm) (*Clusterer, error) {
	for _, c := range cluRegistry {
		if c.id == a {
			return c, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %v (valid: %s)", int(a), strings.Join(AlgorithmNames(), ", "))
}

// lookup finds the entry among whose spellings (canonical name,
// lowercased display name, aliases) name is, case-insensitively. An
// unknown name is an error listing the valid set, generated from the
// registry so it can never go stale: the canonical names in registry
// order, then every other accepted spelling sorted.
// TestNameCatalogMatchesDesign holds each spelling to one entry.
func lookup[E interface{ spellings() []string }](entries []E, kind, name string) (E, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	var canonical, aliases []string
	for _, e := range entries {
		names := e.spellings()
		if slices.Contains(names, want) {
			return e, nil
		}
		canonical = append(canonical, names[0])
		aliases = append(aliases, names[1:]...)
	}
	aliases = slices.DeleteFunc(aliases, func(n string) bool { return slices.Contains(canonical, n) })
	slices.Sort(aliases)
	valid := strings.Join(canonical, ", ")
	if aliases = slices.Compact(aliases); len(aliases) > 0 {
		valid += "; aliases: " + strings.Join(aliases, ", ")
	}
	var none E
	return none, fmt.Errorf("unknown %s %q (valid: %s)", kind, name, valid)
}

// EstimateJobBytes bounds the peak extra memory one pipeline run may
// allocate: the symmetrizer's working set plus the substrate's. sym
// may be nil for directed substrates, whose runs never symmetrize.
func EstimateJobBytes(sym *Symmetrizer, cl *Clusterer, gs GraphStats) int64 {
	var b int64
	if sym != nil && !cl.AcceptsDirected {
		b += sym.cost(gs)
	}
	return b + cl.cost(gs)
}
