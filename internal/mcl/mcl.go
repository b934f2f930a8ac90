// Package mcl implements R-MCL and MLR-MCL (Satuluri & Parthasarathy,
// "Scalable graph clustering using stochastic flows", KDD 2009), the
// primary clustering substrate in the paper's evaluation.
//
// R-MCL simulates a regularized stochastic flow on the graph: the
// column-stochastic flow matrix M is repeatedly updated by
//
//	M := Inflate(M_G · M, r)
//
// where M_G is the column-stochastic matrix of the (self-loop
// augmented) input graph and Inflate raises entries to the power r and
// renormalises columns. Unlike plain MCL's M·M, one operand stays M_G
// (the regularizer), which prevents the massive fragmentation MCL
// suffers on large graphs. KDD'09 writes the product the other way,
// M·M_G, under which each node's flow column becomes the average of its
// neighbours'; under M_G·M each column takes one more step of the walk
// on its own. TestIterateProductOrder pins which one runs; ROADMAP item 11
// weighs switching. MLR-MCL runs R-MCL through a multilevel hierarchy,
// projecting the flow from coarse to fine levels.
//
// Internally the flow is stored transposed (columns as CSR rows), so the
// update is the row-wise product F := F · M_Gᵀ = (M_G·M)ᵀ with row
// inflation.
package mcl

import (
	"context"
	"fmt"
	"math"
	"sort"

	"symcluster/internal/checkpoint"
	"symcluster/internal/csr"
	"symcluster/internal/faultinject"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
)

// Options configures R-MCL / MLR-MCL.
type Options struct {
	// Inflation is the inflation exponent r (> 1). Larger values give
	// more, smaller clusters. The number of output clusters can only be
	// controlled indirectly through this (paper §4.2). Defaults to 2.
	Inflation float64
	// MaxIter bounds the R-MCL iterations at the finest level.
	// Defaults to 60.
	MaxIter int
	// MaxPerColumn caps the entries kept per flow column after each
	// iteration (the heaviest survive). Defaults to 50.
	MaxPerColumn int
	// Multilevel enables MLR-MCL: coarsen the graph, run R-MCL on the
	// coarsest level and refine the flow down the hierarchy.
	Multilevel bool
	// CoarsenTo is the MinNodes for the coarsening (MLR-MCL only).
	// Defaults to 1000.
	CoarsenTo int
	// Seed drives coarsening randomness.
	Seed int64
	// ConvergenceTol stops iterating when the average per-column change
	// drops below it. Defaults to 1e-6.
	ConvergenceTol float64
}

const (
	// pruneThreshold removes flow entries below it after each inflation.
	pruneThreshold = 1e-4
	// iterPerLevel is the number of R-MCL iterations at each
	// intermediate MLR-MCL level.
	iterPerLevel = 4
)

func (o *Options) fill() {
	if o.Inflation <= 1 {
		o.Inflation = 2
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	if o.MaxPerColumn <= 0 {
		o.MaxPerColumn = 50
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 1000
	}
	if o.ConvergenceTol <= 0 {
		o.ConvergenceTol = 1e-6
	}
}

// Result carries the clustering output.
type Result struct {
	// Assign maps each node to a cluster id in [0, K).
	Assign []int
	// K is the number of clusters.
	K int
	// Iterations is the number of R-MCL iterations performed at the
	// finest level.
	Iterations int
}

// ClusterCtx runs R-MCL (or MLR-MCL when opt.Multilevel) on the
// symmetric adjacency matrix adj and returns the clustering. ctx is
// polled at every R-MCL iteration (and at row-block boundaries inside
// the expansion product), so a cancelled context aborts the clustering
// within one iteration with ctx's error.
//
// The solve runs in a workspace taken from a free list and given back
// when it returns, so what it allocates is its answer (and, for
// MLR-MCL, the hierarchy it coarsens).
func ClusterCtx(ctx context.Context, adj *matrix.CSR, opt Options) (*Result, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("mcl: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	opt.fill()
	if adj.Rows == 0 {
		return &Result{Assign: []int{}, K: 0}, nil
	}
	ws := workspaces.Get()
	res, err := ws.cluster(ctx, adj, opt)
	// Not deferred: a solve that panicked may have left a row half
	// accumulated, and its workspace goes with it.
	workspaces.Put(ws)
	return res, err
}

// workspace is everything an R-MCL solve allocates besides its answer:
// the regularizer of the level being solved, the two flow buffers the
// iterations swap, the Expander with its accumulators and staging, and
// the scratch of seeding, projection and cluster extraction. A solve
// holds one for its whole run, every MLR-MCL level included, and returns
// it to workspaces, so concurrent solves each hold their own and a solve
// finds the buffers its predecessors grew. Every buffer is resized to
// the level at hand and written before it is read, which is why a
// reused workspace gives a fresh one's bits.
type workspace struct {
	exp        *matrix.Expander
	mgt        matrix.CSR       // M_Gᵀ of the level being solved
	flow, next *matrix.CSR      // the current flow, and the buffer the next one is written into
	sums       []float64        // regularize: the column scales
	sorter     rowSorter        // seed
	fold       matrix.RowSorter // project
	nodes      []int32          // project: member lists; extract: parents, roots, ids
	stack      []int32          // extract
}

var workspaces = multilevel.NewFreeList(newWorkspace)

func newWorkspace() *workspace {
	return &workspace{exp: matrix.NewExpander(), flow: &matrix.CSR{}, next: &matrix.CSR{}}
}

// cluster is ClusterCtx's solve on a non-empty square adj.
func (ws *workspace) cluster(ctx context.Context, adj *matrix.CSR, opt Options) (*Result, error) {
	if !opt.Multilevel || adj.Rows <= opt.CoarsenTo {
		ws.regularize(adj)
		ws.seed(opt.MaxPerColumn)
		iters, err := ws.iterate(ctx, opt, opt.MaxIter, "mcl")
		if err != nil {
			return nil, err
		}
		assign, k := ws.extract(ws.flow)
		return &Result{Assign: assign, K: k, Iterations: iters}, nil
	}

	h, err := multilevel.CoarsenCtx(ctx, adj, multilevel.Options{MinNodes: opt.CoarsenTo, Seed: opt.Seed})
	if err != nil {
		return nil, fmt.Errorf("mcl: coarsening: %w", err)
	}
	// Run to near-convergence at the coarsest level.
	ws.regularize(h.Coarsest().Adj)
	ws.seed(opt.MaxPerColumn)
	// Coarse levels never checkpoint: their flow dimensions differ from
	// the finest level, so a snapshot taken here could not be restored
	// into a replayed job (which re-coarsens and reaches this code path
	// again anyway in well under an iteration of finest-level work).
	if _, err := ws.iterate(ctx, opt, opt.MaxIter, ""); err != nil {
		return nil, err
	}

	// Walk back up, projecting the flow and refining.
	for level := h.Depth() - 1; level >= 1; level-- {
		fineAdj := h.Levels[level-1].Adj
		ws.project(h.Levels[level].Map, fineAdj.Rows)
		ws.regularize(fineAdj)
		n := iterPerLevel
		kernel := ""
		if level == 1 {
			// Only the finest level checkpoints (see above).
			n = opt.MaxIter
			kernel = "mcl"
		}
		iters, err := ws.iterate(ctx, opt, n, kernel)
		if err != nil {
			return nil, err
		}
		if level == 1 {
			assign, k := ws.extract(ws.flow)
			return &Result{Assign: assign, K: k, Iterations: iters}, nil
		}
	}
	// Unreachable: Depth >= 2 when adj.Rows > CoarsenTo, so the loop
	// returns at level 1.
	panic("mcl: multilevel loop ended without reaching the finest level")
}

// regularize builds M_Gᵀ into ws.mgt: the transpose of the
// column-stochastic matrix of adj plus per-node self-loops. Self-loops
// are scaled to each node's mean incident edge weight: a fixed absolute
// self-loop would dominate graphs whose edge weights are far below 1
// (random-walk and degree-discounted symmetrizations) and fragment every
// node into its own attractor, and even a max-incident scaling
// over-weights nodes on heavy-tailed weight distributions.
//
// Two passes over adj write it, with no matrix in between: the first
// counts each column's entries and adds them up, the second places each
// entry, scaled, in its column's row. It is the materialised
// composition — Add(adj, Diagonal(loops)), Transpose, NormalizeRows —
// done in its order: a column's entries are added in row order, the
// order the transpose lays them out in, and each is multiplied by the
// reciprocal of their sum (left as is when the sum is zero), so the bits
// are the same.
func (ws *workspace) regularize(adj *matrix.CSR) {
	n := adj.Rows
	m := &ws.mgt
	m.Rows, m.Cols = n, n
	m.RowPtr = multilevel.Resize(m.RowPtr, n+1)
	clear(m.RowPtr)
	sums := multilevel.Resize(ws.sums, n)
	ws.sums = sums
	clear(sums)
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		loopRow(i, cols, vals, func(c int32, v float64) {
			m.RowPtr[c+1]++
			sums[c] += v
		})
	}
	for c := 0; c < n; c++ {
		m.RowPtr[c+1] += m.RowPtr[c]
		if sums[c] != 0 {
			sums[c] = 1 / sums[c]
		} else {
			sums[c] = 1
		}
	}
	nnz := int(m.RowPtr[n])
	m.ColIdx, m.Val = multilevel.Resize(m.ColIdx, nnz), multilevel.Resize(m.Val, nnz)
	// m.RowPtr[c] is column c's cursor until every entry is placed, when
	// it holds row c+1's start; the shift puts each start back.
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		loopRow(i, cols, vals, func(c int32, v float64) {
			p := m.RowPtr[c]
			m.ColIdx[p], m.Val[p] = int32(i), v*sums[c]
			m.RowPtr[c]++
		})
	}
	copy(m.RowPtr[1:], m.RowPtr[:n])
	m.RowPtr[0] = 0
}

// loopRow calls emit on each entry of row i of adj + diag(loop), columns
// ascending, where loop is the row's mean weight (1 for a row with no
// positive weight): Add's merge of the row with its self-loop, exact
// zeros dropped.
func loopRow(i int, cols []int32, vals []float64, emit func(c int32, v float64)) {
	var sum float64
	for k := range cols {
		sum += vals[k]
	}
	loop := 1.0
	if len(cols) > 0 && sum > 0 {
		loop = sum / float64(len(cols)) // mean incident weight
	}
	k := 0
	for ; k < len(cols) && int(cols[k]) < i; k++ {
		if vals[k] != 0 {
			emit(cols[k], vals[k])
		}
	}
	if k < len(cols) && int(cols[k]) == i {
		d := vals[k]
		if loop != 0 { // Diagonal stores no zero
			d += loop
		}
		loop = d
		k++
	}
	if loop != 0 {
		emit(int32(i), loop)
	}
	for ; k < len(cols); k++ {
		if vals[k] != 0 {
			emit(cols[k], vals[k])
		}
	}
}

// seed writes the initial flow into ws.flow: each row of the
// regularizer, its non-negative entries cut to the heaviest maxKeep,
// normalised. Cloning the full regularizer would make the first
// expansion an order of magnitude more expensive than steady state on
// dense similarity graphs, and everything beyond the heaviest
// MaxPerColumn entries is pruned after one iteration anyway. Which of
// equal weights survive the cut is what sort.Sort — sort.Slice's
// algorithm — leaves in front.
func (ws *workspace) seed(maxKeep int) {
	m, f := &ws.mgt, ws.flow
	f.Rows, f.Cols = m.Rows, m.Cols
	f.RowPtr = multilevel.Resize(f.RowPtr, m.Rows+1)
	f.RowPtr[0] = 0
	f.ColIdx, f.Val = f.ColIdx[:0], f.Val[:0]
	s := &ws.sorter
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		lo := len(f.ColIdx)
		for k, c := range cols {
			if vals[k] >= 0 {
				f.ColIdx = append(f.ColIdx, c)
				f.Val = append(f.Val, vals[k])
			}
		}
		if len(f.ColIdx)-lo > maxKeep {
			s.cols, s.vals, s.byCol = f.ColIdx[lo:], f.Val[lo:], false
			sort.Sort(s)
			f.ColIdx, f.Val = f.ColIdx[:lo+maxKeep], f.Val[:lo+maxKeep]
			s.cols, s.vals, s.byCol = f.ColIdx[lo:], f.Val[lo:], true
			sort.Sort(s)
			s.cols, s.vals = nil, nil
		}
		f.RowPtr[i+1] = int64(len(f.ColIdx))
	}
	normalizeRowsInPlace(f)
}

// rowSorter orders one row's entries, columns and values together:
// heaviest first, or by column.
type rowSorter struct {
	cols  []int32
	vals  []float64
	byCol bool
}

func (s *rowSorter) Len() int { return len(s.cols) }
func (s *rowSorter) Less(a, b int) bool {
	if s.byCol {
		return s.cols[a] < s.cols[b]
	}
	return s.vals[a] > s.vals[b]
}
func (s *rowSorter) Swap(a, b int) {
	s.cols[a], s.cols[b] = s.cols[b], s.cols[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
}

// iterate performs up to maxIter R-MCL updates on ws.flow, returning
// the number performed. The flow and ws.mgt are in transposed
// (column-as-row) form: the update is F := RowInflate(F · M_Gᵀ, r) with
// per-row pruning, which corresponds to M := Inflate(M_G·M, r) with
// per-column pruning (the package doc says how that differs from
// KDD'09's M·M_G). ctx is polled at every iteration boundary (and inside the
// expansion product), so cancellation aborts within one iteration.
//
// One iteration is one pass of the sparse-product engine: each row of
// the expansion is inflated, thresholded and normalised by flowEpilogue
// as it is flushed, on as many workers as the Expander derives, and the
// residual is a merge of the old and new flow. The expansion is written
// into ws.next, which is then swapped with ws.flow, so ws.flow always
// names the current flow.
//
// Each call opens an "mcl.iterate" span (a no-op when no trace is
// installed in ctx) with the worker count, iteration count, final
// residual, which body scanned the dense rows (scan: avx2 | go) and,
// summed over the tallies its expansions return, the entries the flow
// epilogue's prune threshold trimmed (pruned_entries), how many
// expansion rows were accumulated dense, how many top-k pre-filters fell
// back and how many rows were expanded in groups, as attributes.
//
// ckptKernel names the checkpoint slot this solve saves/restores
// through a context-carried checkpoint.Sink; "" disables checkpointing
// (coarse MLR-MCL levels, whose flow dimensions cannot be restored
// into a replay). With a sink present the solve resumes from the
// sink's snapshot (resume_iter span attribute), saves the flow every
// sink.Interval() iterations, and saves once more when cancelled so a
// drained job loses at most the current iteration.
func (ws *workspace) iterate(ctx context.Context, opt Options, maxIter int, ckptKernel string) (iters int, err error) {
	mgt, expander := &ws.mgt, ws.exp
	expander.Reset()
	ctx, sp := obs.StartSpan(ctx, "mcl.iterate",
		obs.A("nodes", mgt.Rows), obs.A("max_iter", maxIter),
		obs.A("workers", expander.Workers(mgt.Rows)), obs.A("scan", matrix.ScanBody()))
	var lastDelta float64
	var tally matrix.Tally
	defer func() {
		sp.SetAttr("iterations", iters)
		sp.SetAttr("residual", lastDelta)
		sp.SetAttr("pruned_entries", tally.Trimmed)
		sp.SetAttr("dense_rows", tally.DenseRows)
		sp.SetAttr("select_fallbacks", tally.Fallbacks)
		sp.SetAttr("grouped_rows", tally.Grouped)
		sp.EndErr(err)
	}()

	start := 0
	var sink checkpoint.Sink
	if ckptKernel != "" {
		sink = checkpoint.FromContext(ctx)
	}
	if sink != nil {
		if it0, blob, ok := sink.Restore(ckptKernel); ok && it0 > 0 {
			// A stale snapshot (different graph, a coarse-level blob
			// that slipped through, or a pre-csr-codec "CSR1" image)
			// fails the decode or the dimension check and is ignored
			// rather than corrupting the solve. The decoded view aliases
			// the sink's blob, so the flow takes its own copy.
			if f, derr := csr.Decode(blob); derr == nil &&
				f.Rows == ws.flow.Rows && f.Cols == ws.flow.Cols {
				ws.flow.RowPtr = append(ws.flow.RowPtr[:0], f.RowPtr...)
				ws.flow.ColIdx = append(ws.flow.ColIdx[:0], f.ColIdx...)
				ws.flow.Val = append(ws.flow.Val[:0], f.Val...)
				start = it0
			}
		}
		sp.SetAttr("resume_iter", start)
	}
	if start >= maxIter {
		return start, nil
	}
	saved := start
	epilogue := flowEpilogue(opt.Inflation, pruneThreshold)
	// cancelled is the exit for a ctx error seen at iteration it, at the
	// iteration boundary or inside the expansion — ws.flow is iteration
	// it's flow either way: a best-effort snapshot, so a drain-preempted
	// job resumes here instead of at the last periodic checkpoint. The
	// cancel error still wins.
	cancelled := func(it int, err error) (int, error) {
		if sink != nil && it > saved {
			saveFlowCheckpoint(ctx, sink, ckptKernel, it, ws.flow)
		}
		return it, err
	}
	for it := start; it < maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return cancelled(it, err)
		}
		if err := faultinject.Fire("mcl.iterate"); err != nil {
			return it, fmt.Errorf("mcl: %w", err)
		}
		// Inflation is monotone per row, so the top-MaxPerColumn entries
		// after inflation are exactly the top entries of the raw
		// product; selecting them during the product avoids ever
		// materialising (or sorting) the long tail on dense
		// regularizers.
		t, err := expander.MulTopK(ctx, ws.next, ws.flow, mgt, opt.MaxPerColumn, epilogue)
		if err != nil {
			return cancelled(it, err)
		}
		tally.Add(t)
		delta := flowChange(ws.flow, ws.next)
		lastDelta = delta
		ws.flow, ws.next = ws.next, ws.flow
		if sink != nil {
			if n := sink.Interval(); n > 0 && (it+1-start)%n == 0 {
				if err := saveFlowCheckpoint(ctx, sink, ckptKernel, it+1, ws.flow); err != nil {
					return it + 1, err
				}
				saved = it + 1
			}
		}
		if delta < opt.ConvergenceTol {
			return it + 1, nil
		}
	}
	return maxIter, nil
}

// saveFlowCheckpoint serializes the flow matrix (the csr package's
// CRC-framed binary format) and hands it to the sink, under an
// "mcl.checkpoint" span and fault site.
func saveFlowCheckpoint(ctx context.Context, sink checkpoint.Sink, kernel string, iter int, flow *matrix.CSR) (err error) {
	_, sp := obs.StartSpan(ctx, "mcl.checkpoint", obs.A("kernel", kernel), obs.A("iter", iter))
	defer func() { sp.EndErr(err) }()
	if err = faultinject.Fire("mcl.checkpoint"); err != nil {
		return fmt.Errorf("mcl: %w", err)
	}
	blob := csr.Encode(flow)
	if err = sink.Save(kernel, iter, blob); err != nil {
		return fmt.Errorf("mcl: saving checkpoint: %w", err)
	}
	sp.SetAttr("bytes", len(blob))
	return nil
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// inflate returns math.Pow(v, r). Squaring is the common case and an
// order of magnitude cheaper as a multiplication, which rounds once,
// exactly as math.Pow(v, 2) does, whenever the square is a normal
// number; a subnormal square may differ in its last bit and takes the
// general path. The conversion pins that rounding: without it the row
// sum the square is then added to could fuse with it (arm64, ppc64,
// s390x) and part from the oracle's math.Pow.
func inflate(v, r float64) float64 {
	if w := float64(v * v); r == 2 && w >= minNormal {
		return w
	}
	return math.Pow(v, r)
}

// flowEpilogue returns the per-row tail of an R-MCL iteration, run by
// the engine on each expansion row while it is still in cache: raise
// every entry to the power r and normalise the row, drop what is then
// below threshold — the row maximum always stays, so no column empties
// out — and normalise what is left. It returns the survivors, packed to
// the front in column order.
func flowEpilogue(r, threshold float64) func(cols []int32, vals []float64) int {
	return func(cols []int32, vals []float64) int {
		var sum float64
		for k, v := range vals {
			vals[k] = inflate(v, r)
			sum += vals[k]
		}
		normalize(vals, sum)
		var best float64
		for _, v := range vals {
			if v > best {
				best = v
			}
		}
		n := 0
		sum = 0
		for k, v := range vals {
			if v >= threshold || v == best {
				cols[n], vals[n] = cols[k], v
				sum += v
				n++
			}
		}
		normalize(vals[:n], sum)
		return n
	}
}

// normalize scales vals, which add up to sum, to add up to one.
func normalize(vals []float64, sum float64) {
	if sum > 0 {
		inv := 1 / sum
		for k := range vals {
			vals[k] *= inv
		}
	}
}

func normalizeRowsInPlace(m *matrix.CSR) {
	for i := 0; i < m.Rows; i++ {
		_, vals := m.Row(i)
		var sum float64
		for _, v := range vals {
			sum += v
		}
		normalize(vals, sum)
	}
}

// flowChange returns the mean L1 difference between consecutive flow
// matrices, a cheap convergence signal: a merge of each row pair summed
// in row-then-column order on the caller's goroutine, so the residual
// does not depend on how many workers produced b.
func flowChange(a, b *matrix.CSR) float64 {
	var sum float64
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		p, q := 0, 0
		for p < len(ac) && q < len(bc) {
			switch {
			case ac[p] < bc[q]:
				sum += math.Abs(av[p])
				p++
			case bc[q] < ac[p]:
				sum += math.Abs(bv[q])
				q++
			default:
				sum += math.Abs(av[p] - bv[q])
				p++
				q++
			}
		}
		for ; p < len(ac); p++ {
			sum += math.Abs(av[p])
		}
		for ; q < len(bc); q++ {
			sum += math.Abs(bv[q])
		}
	}
	return sum / float64(a.Rows)
}

// project expands the coarse flow in ws.flow to the finer level of
// fineN nodes and makes it ws.flow: fine node i adopts the flow column
// of its coarse parent, with mass split equally among the fine members
// of each coarse destination. Rows are written as they come and folded
// as a Builder folds them (matrix.FoldRows), then normalised.
func (ws *workspace) project(fineToCoarse []int32, fineN int) {
	coarse, fine := ws.flow, ws.next
	// Each coarse node's members, ascending: a counting sort into
	// members, start[c] the first of c's. As in regularize, start[c] is
	// c's cursor while they are placed, and the shift puts it back.
	nodes := multilevel.Resize(ws.nodes, coarse.Rows+1+fineN)
	ws.nodes = nodes
	start, members := nodes[:coarse.Rows+1], nodes[coarse.Rows+1:]
	clear(start)
	for _, c := range fineToCoarse {
		start[c+1]++
	}
	for c := 0; c < coarse.Rows; c++ {
		start[c+1] += start[c]
	}
	for f, c := range fineToCoarse {
		members[start[c]] = int32(f)
		start[c]++
	}
	copy(start[1:], start[:coarse.Rows])
	start[0] = 0

	fine.Rows, fine.Cols = fineN, fineN
	fine.RowPtr = multilevel.Resize(fine.RowPtr, fineN+1)
	fine.RowPtr[0] = 0
	fine.ColIdx, fine.Val = fine.ColIdx[:0], fine.Val[:0]
	for f := 0; f < fineN; f++ {
		cols, vals := coarse.Row(int(fineToCoarse[f]))
		for k, cc := range cols {
			ms := members[start[cc]:start[cc+1]]
			if len(ms) == 0 {
				continue
			}
			share := vals[k] / float64(len(ms))
			for _, m := range ms {
				fine.ColIdx = append(fine.ColIdx, m)
				fine.Val = append(fine.Val, share)
			}
		}
		fine.RowPtr[f+1] = int64(len(fine.ColIdx))
	}
	// The folded rows are a prefix of the arrays, whose room is kept.
	nnz := matrix.FoldRows(fineN, fine.RowPtr, fine.ColIdx, fine.Val, &ws.fold)
	fine.ColIdx, fine.Val = fine.ColIdx[:nnz], fine.Val[:nnz]
	normalizeRowsInPlace(fine)
	ws.flow, ws.next = fine, coarse
}

// extract reads a converged flow (transposed form) and assigns each node
// to its attractor: the destination with maximum flow. Attractor
// pointers are then collapsed (with cycle handling) so that nodes
// flowing to the same sink share a cluster id, numbered in order of
// first appearance. The assignment is the only array it allocates.
func (ws *workspace) extract(flow *matrix.CSR) ([]int, int) {
	n := flow.Rows
	nodes := multilevel.Resize(ws.nodes, 2*n)
	ws.nodes = nodes
	parent, root := nodes[:n], nodes[n:]
	for i := 0; i < n; i++ {
		cols, vals := flow.Row(i)
		if len(cols) == 0 {
			parent[i] = int32(i)
			continue
		}
		best, bestV := cols[0], vals[0]
		for k := 1; k < len(cols); k++ {
			if vals[k] > bestV {
				best, bestV = cols[k], vals[k]
			}
		}
		parent[i] = best
	}

	// root[v] is -1 while v is unvisited, -2 while it is on the stack.
	const unvisited, onStack = -1, -2
	for i := range root {
		root[i] = unvisited
	}
	stack := ws.stack[:0]
	for s := 0; s < n; s++ {
		if root[s] >= 0 {
			continue
		}
		stack = stack[:0]
		u := int32(s)
		for root[u] == unvisited {
			root[u] = onStack
			stack = append(stack, u)
			u = parent[u]
		}
		var r int32
		if root[u] == onStack {
			// Found a new cycle: its canonical root is the smallest node
			// in it.
			r = u
			for v := parent[u]; v != u; v = parent[v] {
				if v < r {
					r = v
				}
			}
		} else {
			r = root[u]
		}
		for _, v := range stack {
			root[v] = r
		}
	}
	ws.stack = stack

	id := parent // the parents are spent: each root's cluster id, -1 until seen
	for i := range id {
		id[i] = -1
	}
	assign := make([]int, n)
	k := 0
	for i, r := range root {
		if id[r] < 0 {
			id[r] = int32(k)
			k++
		}
		assign[i] = int(id[r])
	}
	return assign, k
}
