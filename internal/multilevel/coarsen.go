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

// Options configures CoarsenCtx.
type Options struct {
	// MinNodes stops coarsening when a level has at most this many
	// nodes. Defaults to 100.
	MinNodes int
	// Seed drives the random visit order of the matching.
	Seed int64
}

const (
	// maxLevels bounds the hierarchy depth (finest level included).
	maxLevels = 20
	// minShrink stops coarsening when a level shrinks by less than this
	// factor (the coarse graph keeps 95 % of the nodes or more), which
	// prevents stalling on star-like graphs.
	minShrink = 0.95
)

func (o *Options) fill() {
	if o.MinNodes <= 0 {
		o.MinNodes = 100
	}
}

// CoarsenCtx builds a coarsening hierarchy of the symmetric adjacency
// adj by repeated heavy-edge matching. Self-loops are preserved through
// contraction (internal edge weight accumulates on the diagonal), which
// the kernel-k-means refinement in Graclus relies on. ctx is polled
// before each level is built, so a cancelled context aborts the
// hierarchy within one matching-and-contraction round with ctx's error.
// Each call opens
// a "multilevel.coarsen" span that records the hierarchy depth and
// coarsest-level size. The hierarchy is built in fresh storage.
func CoarsenCtx(ctx context.Context, adj *matrix.CSR, opt Options) (*Hierarchy, error) {
	return coarsen(ctx, adj, opt, nil)
}

// Scratch is storage a caller owns and coarsens into: the matching's
// generator, visit order and pairs, the contraction's row order, and
// every level's arrays. A build into it reuses what earlier builds grew,
// so the hierarchy it returns lives until its next build, and nothing
// that is kept may come from one. The zero value is ready.
type Scratch struct {
	rng          *rand.Rand
	order        []int
	match, group []int32
	h            *Hierarchy // its array holds every level slot built so far
}

// Release drops the adjacency the last build was given, so an idle
// Scratch pins no caller's graph; the arrays it grew stay.
func (s *Scratch) Release() {
	if s.h != nil && len(s.h.Levels) > 0 {
		s.h.Levels[0].Adj = nil
	}
}

// coarsen is CoarsenCtx into s (nil: fresh storage), with extra
// attributes on its span.
func coarsen(ctx context.Context, adj *matrix.CSR, opt Options, s *Scratch, attrs ...obs.Attr) (hier *Hierarchy, err error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("multilevel: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	opt.fill()
	if s == nil {
		s = &Scratch{} // dies with the call: the hierarchy holds only its levels
	}
	if s.rng == nil {
		s.rng, s.h = rand.New(rand.NewSource(0)), &Hierarchy{}
	}
	s.rng.Seed(opt.Seed) // the sequence a fresh source gives
	h := s.h
	h.Levels = h.Levels[:0]

	_, sp := obs.StartSpan(ctx, "multilevel.coarsen", append([]obs.Attr{obs.A("nodes", adj.Rows)}, attrs...)...)
	first := h.slot()
	first.Adj, first.NodeWeight, first.Map = adj, Resize(first.NodeWeight, adj.Rows), nil
	for i := range first.NodeWeight {
		first.NodeWeight[i] = 1
	}
	h.Levels = append(h.Levels, first)
	defer func() { endCoarsen(sp, h, err) }()
	for h.Depth() < maxLevels {
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
		if !s.contract(cur, s.heavyEdgeMatching(cur.Adj, s.rng), h) {
			break
		}
	}
	return h, nil
}

// slot is the Level h's next level is built in: the one an earlier build
// left past the end of h.Levels, or a new one.
func (h *Hierarchy) slot() *Level {
	if d := len(h.Levels); d < cap(h.Levels) && h.Levels[:d+1][d] != nil {
		return h.Levels[:d+1][d]
	}
	return &Level{Adj: &matrix.CSR{}}
}

// endCoarsen closes a "multilevel.coarsen" span over the hierarchy it
// produced — built here or served by a Memo.
func endCoarsen(sp *obs.Span, h *Hierarchy, err error) {
	sp.SetAttr("levels", h.Depth())
	sp.SetAttr("coarsest_nodes", h.Coarsest().Adj.Rows)
	sp.EndErr(err)
}

// heavyEdgeMatching visits nodes in random order; each unmatched node
// is matched to its unmatched neighbour with the heaviest connecting
// edge (ties broken by lower index for determinism given the visit
// order). Returns match[i] = j (with match[j] = i) or match[i] = i for
// unmatched nodes, in s's storage.
func (s *Scratch) heavyEdgeMatching(adj *matrix.CSR, rng *rand.Rand) []int32 {
	n := adj.Rows
	match := Resize(s.match, n)
	for i := range match {
		match[i] = -1
	}
	s.match, s.order = match, Perm(rng, s.order, n)
	for _, u := range s.order {
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

// contract merges matched pairs into coarse nodes and appends the
// coarse level to h, unless it would keep more than minShrink of the
// nodes. The level's adjacency keeps in view the arrays it was assembled
// in, as long as the finer level's nnz: HeldBytes counts them, and a
// Scratch's next build reuses them.
func (s *Scratch) contract(cur *Level, match []int32, h *Hierarchy) bool {
	n, cn := cur.Adj.Rows, int32(0)
	for i, m := range match {
		if int(m) >= i {
			cn++
		}
	}
	if float64(cn) > minShrink*float64(n) {
		return false
	}
	next := h.slot()
	coarseID := Resize(next.Map, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	group := s.group[:0] // fine rows grouped by coarse node: lowest member, then its match
	for i, id := 0, int32(0); i < n; i++ {
		if coarseID[i] != -1 {
			continue
		}
		coarseID[i] = id
		group = append(group, int32(i))
		if m := match[i]; int(m) != i {
			coarseID[m] = id
			group = append(group, m)
		}
		id++
	}
	s.group = group

	// Walking fine rows in that order writes each coarse row where it
	// lands, in the sequence a stable sort by row would leave a walk in
	// index order — what FoldRows' per-row sort is given decides the last
	// bit of a three-way merge — and FoldRows folds the rows in place.
	rowPtr := Resize(next.Adj.RowPtr, int(cn)+1)
	cols, vals := Resize(next.Adj.ColIdx, cur.Adj.NNZ()), Resize(next.Adj.Val, cur.Adj.NNZ())
	rowPtr[0] = 0
	at := 0
	for _, i := range group {
		fc, fv := cur.Adj.Row(int(i))
		for k, c := range fc {
			cols[at+k] = coarseID[c]
		}
		at += copy(vals[at:], fv)
		rowPtr[coarseID[i]+1] = int64(at)
	}
	weight := Resize(next.NodeWeight, int(cn))
	clear(weight)
	for i := 0; i < n; i++ {
		weight[coarseID[i]] += cur.NodeWeight[i]
	}
	adj := matrix.FoldRows(int(cn), int(cn), rowPtr, cols, vals)
	adj.ColIdx, adj.Val = cols[:adj.NNZ()], vals[:adj.NNZ()]
	*next.Adj = *adj
	next.NodeWeight, next.Map = weight, coarseID
	h.Levels = append(h.Levels, next)
	return true
}

// Project maps an assignment over the nodes of h.Levels[level] down to
// the nodes of h.Levels[level-1] (one level finer), written into dst
// (resized), which must not share assign's array.
func (h *Hierarchy) Project(level int, assign, dst []int) []int {
	if level <= 0 || level >= h.Depth() {
		panic(fmt.Sprintf("multilevel: Project level %d outside (0,%d)", level, h.Depth()))
	}
	m := h.Levels[level].Map
	fine := Resize(dst, len(m))
	for i, c := range m {
		fine[i] = assign[c]
	}
	return fine
}
