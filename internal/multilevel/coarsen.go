// Package multilevel implements the graph-coarsening machinery shared
// by the three multilevel clustering substrates (MLR-MCL, the
// Metis-like partitioner and the Graclus-like clusterer): heavy-edge
// matching, contraction, and projection of assignments back to finer
// levels.
package multilevel

import (
	"context"
	"fmt"
	"math/rand"

	"symcluster/internal/faultinject"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// Level is one level of a coarsening hierarchy. Adj is the symmetric
// weighted adjacency at this level, NodeWeight the aggregated number of
// original vertices inside each coarse node, and Map the mapping from
// the previous (finer) level's nodes to this level's nodes (nil at the
// finest level).
type Level struct {
	Adj        *matrix.CSR
	NodeWeight []float64
	Map        []int32
}

// Hierarchy is a sequence of levels, finest first.
type Hierarchy struct {
	Levels []*Level
}

// Coarsest returns the last (smallest) level.
func (h *Hierarchy) Coarsest() *Level { return h.Levels[len(h.Levels)-1] }

// Depth returns the number of levels, including the finest.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Options configures Coarsen.
type Options struct {
	// MinNodes stops coarsening when a level has at most this many
	// nodes. Defaults to 100.
	MinNodes int
	// MaxLevels bounds the hierarchy depth (finest level included).
	// Defaults to 20.
	MaxLevels int
	// Seed drives the random visit order of the matching.
	Seed int64
	// MinShrink aborts coarsening when a level shrinks by less than this
	// factor (e.g. 0.9 means "stop unless the coarse graph has < 90% of
	// the nodes"), which prevents stalling on star-like graphs.
	// Defaults to 0.95.
	MinShrink float64
}

func (o *Options) fill() {
	if o.MinNodes <= 0 {
		o.MinNodes = 100
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 20
	}
	if o.MinShrink <= 0 || o.MinShrink >= 1 {
		o.MinShrink = 0.95
	}
}

// CoarsenCtx builds a coarsening hierarchy of the symmetric adjacency
// adj by repeated heavy-edge matching. Self-loops are preserved through
// contraction (internal edge weight accumulates on the diagonal), which
// the kernel-k-means refinement in Graclus relies on. ctx is polled
// before each level is built, so a cancelled context aborts the
// hierarchy within one matching-and-contraction round with ctx's error.
// Each call opens
// a "multilevel.coarsen" span and records the hierarchy depth and
// coarsest-level size through the obs hooks.
func CoarsenCtx(ctx context.Context, adj *matrix.CSR, opt Options) (hier *Hierarchy, err error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("multilevel: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	opt.fill()
	rng := rand.New(rand.NewSource(opt.Seed))

	ctx, sp := obs.StartSpan(ctx, "multilevel.coarsen", obs.A("nodes", adj.Rows))
	h := &Hierarchy{Levels: []*Level{{Adj: adj, NodeWeight: ones(adj.Rows)}}}
	defer func() { endCoarsen(ctx, sp, h, err) }()
	for h.Depth() < opt.MaxLevels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faultinject.Fire("multilevel.level"); err != nil {
			return nil, fmt.Errorf("multilevel: %w", err)
		}
		cur := h.Coarsest()
		if cur.Adj.Rows <= opt.MinNodes {
			break
		}
		match := heavyEdgeMatching(cur.Adj, rng)
		next, ok := contract(cur, match, opt.MinShrink)
		if !ok {
			break
		}
		h.Levels = append(h.Levels, next)
	}
	return h, nil
}

// endCoarsen closes a "multilevel.coarsen" span over the hierarchy it
// produced — built here or served by a Memo — and fires the obs hook.
func endCoarsen(ctx context.Context, sp *obs.Span, h *Hierarchy, err error) {
	sp.SetAttr("levels", h.Depth())
	sp.SetAttr("coarsest_nodes", h.Coarsest().Adj.Rows)
	sp.EndErr(err)
	if err == nil {
		obs.ObserveCoarsen(ctx, h.Depth(), h.Coarsest().Adj.Rows)
	}
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// heavyEdgeMatching visits nodes in random order; each unmatched node
// is matched to its unmatched neighbour with the heaviest connecting
// edge (ties broken by lower index for determinism given the visit
// order). Returns match[i] = j (with match[j] = i) or match[i] = i for
// unmatched nodes.
func heavyEdgeMatching(adj *matrix.CSR, rng *rand.Rand) []int32 {
	n := adj.Rows
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, u := range order {
		if match[u] != -1 {
			continue
		}
		cols, vals := adj.Row(u)
		best := int32(-1)
		bestW := 0.0
		for k, c := range cols {
			if int(c) == u || match[c] != -1 {
				continue
			}
			if vals[k] > bestW || (vals[k] == bestW && best != -1 && c < best) {
				best, bestW = c, vals[k]
			}
		}
		if best == -1 {
			match[u] = int32(u)
		} else {
			match[u] = best
			match[best] = int32(u)
		}
	}
	return match
}

// contract merges matched pairs into coarse nodes. Returns the new
// level and whether the contraction shrank the graph enough to be
// worth keeping.
func contract(cur *Level, match []int32, minShrink float64) (*Level, bool) {
	n := cur.Adj.Rows
	coarseID := make([]int32, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	order := make([]int32, 0, n) // fine rows grouped by coarse node: lowest member, then its match
	next := int32(0)
	for i := 0; i < n; i++ {
		if coarseID[i] != -1 {
			continue
		}
		coarseID[i] = next
		order = append(order, int32(i))
		if m := match[i]; int(m) != i {
			coarseID[m] = next
			order = append(order, m)
		}
		next++
	}
	cn := int(next)
	if float64(cn) > minShrink*float64(n) {
		return nil, false
	}

	// Walking fine rows in that order hands the builder its triplets
	// row-major (no scatter), each coarse row as a stable sort by row
	// would leave a walk in index order: what Build's per-row sort is
	// given decides the last bit of a three-way merge.
	b := matrix.NewBuilder(cn, cn)
	b.Reserve(cur.Adj.NNZ())
	for _, i := range order {
		cols, vals := cur.Adj.Row(int(i))
		ci := coarseID[i]
		for k, c := range cols {
			b.Add(int(ci), int(coarseID[c]), vals[k])
		}
	}
	weight := make([]float64, cn)
	for i := 0; i < n; i++ {
		weight[coarseID[i]] += cur.NodeWeight[i]
	}
	return &Level{Adj: b.Build(), NodeWeight: weight, Map: coarseID}, true
}

// Project maps an assignment over the nodes of h.Levels[level] down to
// the nodes of h.Levels[level-1] (one level finer).
func (h *Hierarchy) Project(level int, assign []int) []int {
	if level <= 0 || level >= h.Depth() {
		panic(fmt.Sprintf("multilevel: Project level %d outside (0,%d)", level, h.Depth()))
	}
	m := h.Levels[level].Map
	fine := make([]int, len(m))
	for i, c := range m {
		fine[i] = assign[c]
	}
	return fine
}

// ProjectToFinest maps an assignment over the coarsest level's nodes
// all the way down to the finest level.
func (h *Hierarchy) ProjectToFinest(assign []int) []int {
	for level := h.Depth() - 1; level >= 1; level-- {
		assign = h.Project(level, assign)
	}
	return assign
}
