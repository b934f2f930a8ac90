// Package mcl implements R-MCL and MLR-MCL (Satuluri & Parthasarathy,
// "Scalable graph clustering using stochastic flows", KDD 2009), the
// primary clustering substrate in the paper's evaluation.
//
// R-MCL simulates a regularized stochastic flow on the graph: the
// column-stochastic flow matrix M is repeatedly updated by
//
//	M := Inflate(M · M_G, r)
//
// where M_G is the column-stochastic matrix of the (self-loop
// augmented) input graph and Inflate raises entries to the power r and
// renormalises columns. Unlike plain MCL, the right operand stays M_G
// (the regularizer), which prevents the massive fragmentation MCL
// suffers on large graphs. MLR-MCL runs R-MCL through a multilevel
// hierarchy, projecting the flow from coarse to fine levels.
//
// Internally the flow is stored transposed (columns as CSR rows) so the
// update is the row-wise product F := M_Gᵀ · F with row inflation.
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
	// PruneThreshold removes flow entries below it after each inflation.
	// Defaults to 1e-4.
	PruneThreshold float64
	// MaxPerColumn caps the entries kept per flow column after each
	// iteration (the heaviest survive). Defaults to 50.
	MaxPerColumn int
	// SelfLoopWeight is the weight of the self-loop added to every node
	// before normalisation. Defaults to 1.
	SelfLoopWeight float64
	// Multilevel enables MLR-MCL: coarsen the graph, run R-MCL on the
	// coarsest level and refine the flow down the hierarchy.
	Multilevel bool
	// CoarsenTo is the MinNodes for the coarsening (MLR-MCL only).
	// Defaults to 1000.
	CoarsenTo int
	// IterPerLevel is the number of R-MCL iterations at each
	// intermediate level (MLR-MCL only). Defaults to 4.
	IterPerLevel int
	// Seed drives coarsening randomness.
	Seed int64
	// ConvergenceTol stops iterating when the average per-column change
	// drops below it. Defaults to 1e-6.
	ConvergenceTol float64
	// Plain switches to the original (unregularized) MCL of van Dongen:
	// the expansion step squares the flow matrix (M := M·M) instead of
	// multiplying by the graph regularizer. Kept as a baseline — plain
	// MCL fragments large graphs into many more clusters, which is the
	// problem R-MCL was designed to fix. Incompatible with Multilevel.
	Plain bool
}

func (o *Options) fill() {
	if o.Inflation <= 1 {
		o.Inflation = 2
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	if o.PruneThreshold <= 0 {
		o.PruneThreshold = 1e-4
	}
	if o.MaxPerColumn <= 0 {
		o.MaxPerColumn = 50
	}
	if o.SelfLoopWeight <= 0 {
		o.SelfLoopWeight = 1
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 1000
	}
	if o.IterPerLevel <= 0 {
		o.IterPerLevel = 4
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

// Cluster runs R-MCL (or MLR-MCL when opt.Multilevel) on the symmetric
// adjacency matrix adj and returns the clustering.
func Cluster(adj *matrix.CSR, opt Options) (*Result, error) {
	return ClusterCtx(context.Background(), adj, opt)
}

// ClusterCtx is Cluster with cancellation: ctx is polled at every R-MCL
// iteration (and at row-block boundaries inside the expansion product),
// so a cancelled context aborts the clustering within one iteration
// with ctx's error.
func ClusterCtx(ctx context.Context, adj *matrix.CSR, opt Options) (*Result, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("mcl: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	opt.fill()
	if adj.Rows == 0 {
		return &Result{Assign: []int{}, K: 0}, nil
	}

	if opt.Plain && opt.Multilevel {
		return nil, fmt.Errorf("mcl: Plain MCL cannot be combined with Multilevel")
	}
	if !opt.Multilevel || adj.Rows <= opt.CoarsenTo {
		mgt := regularizer(adj, opt.SelfLoopWeight)
		flow := initialFlow(mgt, opt)
		iters, err := iterate(ctx, &flow, mgt, opt, opt.MaxIter, "mcl")
		if err != nil {
			return nil, err
		}
		assign, k := extractClusters(flow)
		return &Result{Assign: assign, K: k, Iterations: iters}, nil
	}

	h, err := multilevel.CoarsenCtx(ctx, adj, multilevel.Options{MinNodes: opt.CoarsenTo, Seed: opt.Seed})
	if err != nil {
		return nil, fmt.Errorf("mcl: coarsening: %w", err)
	}
	// Run to near-convergence at the coarsest level.
	coarse := h.Coarsest()
	mgt := regularizer(coarse.Adj, opt.SelfLoopWeight)
	flow := initialFlow(mgt, opt)
	// Coarse levels never checkpoint: their flow dimensions differ from
	// the finest level, so a snapshot taken here could not be restored
	// into a replayed job (which re-coarsens and reaches this code path
	// again anyway in well under an iteration of finest-level work).
	if _, err := iterate(ctx, &flow, mgt, opt, opt.MaxIter, ""); err != nil {
		return nil, err
	}

	// Walk back up, projecting the flow and refining.
	for level := h.Depth() - 1; level >= 1; level-- {
		fineAdj := h.Levels[level-1].Adj
		flow = projectFlow(flow, h.Levels[level].Map, fineAdj.Rows)
		mgt = regularizer(fineAdj, opt.SelfLoopWeight)
		n := opt.IterPerLevel
		kernel := ""
		if level == 1 {
			// Only the finest level checkpoints (see above).
			n = opt.MaxIter
			kernel = "mcl"
		}
		iters, err := iterate(ctx, &flow, mgt, opt, n, kernel)
		if err != nil {
			return nil, err
		}
		if level == 1 {
			assign, k := extractClusters(flow)
			return &Result{Assign: assign, K: k, Iterations: iters}, nil
		}
	}
	// Unreachable: Depth >= 2 when adj.Rows > CoarsenTo, so the loop
	// returns at level 1.
	panic("mcl: multilevel loop ended without reaching the finest level")
}

// initialFlow seeds the flow matrix from the regularizer, truncated to
// the per-column budget. Cloning the full regularizer would make the
// first expansion an order of magnitude more expensive than steady
// state on dense similarity graphs, and everything beyond the heaviest
// MaxPerColumn entries is pruned after one iteration anyway.
func initialFlow(mgt *matrix.CSR, opt Options) *matrix.CSR {
	f := prunePerRow(mgt, 0, opt.MaxPerColumn)
	normalizeRowsInPlace(f)
	return f
}

// regularizer returns M_Gᵀ: the transpose of the column-stochastic
// matrix of adj plus per-node self-loops. Self-loops are scaled to each
// node's mean incident edge weight (times the SelfLoopWeight factor): a
// fixed absolute self-loop would dominate graphs whose edge weights are
// far below 1 (random-walk and degree-discounted symmetrizations) and
// fragment every node into its own attractor, and even a max-incident
// scaling over-weights nodes on heavy-tailed weight distributions.
func regularizer(adj *matrix.CSR, selfLoop float64) *matrix.CSR {
	n := adj.Rows
	loops := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		cols, vals := adj.Row(i)
		for k := range cols {
			sum += vals[k]
		}
		w := 1.0
		if len(cols) > 0 && sum > 0 {
			w = sum / float64(len(cols)) // mean incident weight
		}
		loops[i] = selfLoop * w
	}
	a := matrix.Add(adj, matrix.Diagonal(loops), 1, 1)
	// Column-normalise then transpose == transpose then row-normalise.
	return a.Transpose().NormalizeRows()
}

// iterate performs up to maxIter R-MCL updates on *flow, returning the
// number performed. flow and mgt are in transposed (column-as-row)
// form: the update is F := RowInflate(M_Gᵀ · F, r) with per-row
// pruning, which corresponds to M := Inflate(M·M_G, r) with per-column
// pruning. ctx is polled at every iteration boundary (and inside the
// expansion product), so cancellation aborts within one iteration.
//
// One iteration is one pass of the sparse-product engine: each row of
// the expansion is inflated, thresholded and normalised by flowEpilogue
// as it is flushed, on as many workers as the Expander derives, and the
// residual is a merge of the old and new flow. The solve owns two flow
// buffers and swaps them — *flow always names the current one, and the
// matrix it named on entry is overwritten from the second iteration on.
//
// Each call opens an "mcl.iterate" span (worker count, iteration count,
// final residual, how many expansion rows were accumulated dense, which
// body scanned them (scan: avx2 | go) and how many top-k pre-filters fell
// back, as attributes) and records
// per-iteration residual, flow nonzeros and threshold-pruned entries
// through the obs hooks; both are no-ops when no trace/meter is
// installed in ctx.
//
// ckptKernel names the checkpoint slot this solve saves/restores
// through a context-carried checkpoint.Sink; "" disables checkpointing
// (coarse MLR-MCL levels, whose flow dimensions cannot be restored
// into a replay). With a sink present the solve resumes from the
// sink's snapshot (resume_iter span attribute), saves the flow every
// sink.Interval() iterations, and saves once more when cancelled so a
// drained job loses at most the current iteration.
func iterate(ctx context.Context, flow **matrix.CSR, mgt *matrix.CSR, opt Options, maxIter int, ckptKernel string) (iters int, err error) {
	expander := matrix.NewExpander()
	ctx, sp := obs.StartSpan(ctx, "mcl.iterate",
		obs.A("nodes", mgt.Rows), obs.A("max_iter", maxIter),
		obs.A("workers", expander.Workers(mgt.Rows)), obs.A("scan", matrix.ScanBody()))
	ctx, paths := obs.WithPruneStats(ctx)
	var lastDelta float64
	defer func() {
		sp.SetAttr("iterations", iters)
		sp.SetAttr("residual", lastDelta)
		dense, fallbacks := paths.RowPaths()
		sp.SetAttr("dense_rows", dense)
		sp.SetAttr("select_fallbacks", fallbacks)
		sp.EndErr(err)
		obs.ObserveMCLRun(ctx, iters)
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
				f.Rows == (*flow).Rows && f.Cols == (*flow).Cols {
				*flow = f.Clone()
				start = it0
			}
		}
		sp.SetAttr("resume_iter", start)
	}
	if start >= maxIter {
		return start, nil
	}
	saved := start
	epilogue := flowEpilogue(opt.Inflation, opt.PruneThreshold)
	next := &matrix.CSR{}
	// cancelled is the exit for a ctx error seen at iteration it, at the
	// iteration boundary or inside the expansion — *flow is iteration
	// it's flow either way: a best-effort snapshot, so a drain-preempted
	// job resumes here instead of at the last periodic checkpoint. The
	// cancel error still wins.
	cancelled := func(it int, err error) (int, error) {
		if sink != nil && it > saved {
			saveFlowCheckpoint(ctx, sink, ckptKernel, it, *flow)
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
		right := mgt
		if opt.Plain {
			right = *flow // plain MCL squares the flow matrix
		}
		// Inflation is monotone per row, so the top-MaxPerColumn entries
		// after inflation are exactly the top entries of the raw
		// product; selecting them during the product avoids ever
		// materialising (or sorting) the long tail on dense
		// regularizers.
		pruned, err := expander.MulTopK(ctx, next, *flow, right, opt.MaxPerColumn, epilogue)
		if err != nil {
			return cancelled(it, err)
		}
		delta := flowChange(*flow, next)
		lastDelta = delta
		obs.ObserveMCLIteration(ctx, delta, next.NNZ(), pruned)
		*flow, next = next, *flow
		if sink != nil {
			if n := sink.Interval(); n > 0 && (it+1-start)%n == 0 {
				if err := saveFlowCheckpoint(ctx, sink, ckptKernel, it+1, *flow); err != nil {
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
	ctx, sp := obs.StartSpan(ctx, "mcl.checkpoint", obs.A("iter", iter))
	defer func() { sp.EndErr(err) }()
	if err = faultinject.Fire("mcl.checkpoint"); err != nil {
		return fmt.Errorf("mcl: %w", err)
	}
	blob := csr.Encode(flow)
	if err = sink.Save(kernel, iter, blob); err != nil {
		return fmt.Errorf("mcl: saving checkpoint: %w", err)
	}
	sp.SetAttr("bytes", len(blob))
	obs.ObserveCheckpoint(ctx, kernel, len(blob))
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

// prunePerRow drops entries below threshold and keeps at most maxKeep
// of the heaviest entries per row.
func prunePerRow(m *matrix.CSR, threshold float64, maxKeep int) *matrix.CSR {
	// Sized up front — no row keeps more than it has or than maxKeep —
	// rather than grown by append, which copies the flow twice over.
	most := m.NNZ()
	if maxKeep < most/max(m.Rows, 1) {
		most = m.Rows * maxKeep
	}
	out := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1),
		ColIdx: make([]int32, 0, most), Val: make([]float64, 0, most)}
	type entry struct {
		col int32
		val float64
	}
	var buf []entry
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		buf = buf[:0]
		var best float64
		for k := range cols {
			if vals[k] > best {
				best = vals[k]
			}
		}
		for k, c := range cols {
			// Always keep the row maximum so no column empties out.
			if vals[k] >= threshold || vals[k] == best {
				buf = append(buf, entry{c, vals[k]})
			}
		}
		if len(buf) > maxKeep {
			sort.Slice(buf, func(a, b int) bool { return buf[a].val > buf[b].val })
			buf = buf[:maxKeep]
			sort.Slice(buf, func(a, b int) bool { return buf[a].col < buf[b].col })
		}
		for _, e := range buf {
			out.ColIdx = append(out.ColIdx, e.col)
			out.Val = append(out.Val, e.val)
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
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

// projectFlow expands a coarse flow matrix (transposed form: rows are
// fine columns) to the finer level: fine node i adopts the flow column
// of its coarse parent, with mass split equally among the fine members
// of each coarse destination.
func projectFlow(flow *matrix.CSR, fineToCoarse []int32, fineN int) *matrix.CSR {
	members := make([][]int32, flow.Rows)
	for f, c := range fineToCoarse {
		members[c] = append(members[c], int32(f))
	}
	b := matrix.NewBuilder(fineN, fineN)
	b.Reserve(flow.NNZ() * 2)
	for f := 0; f < fineN; f++ {
		c := fineToCoarse[f]
		cols, vals := flow.Row(int(c))
		for k, cc := range cols {
			ms := members[cc]
			if len(ms) == 0 {
				continue
			}
			share := vals[k] / float64(len(ms))
			for _, m := range ms {
				b.Add(f, int(m), share)
			}
		}
	}
	out := b.Build()
	normalizeRowsInPlace(out)
	return out
}

// extractClusters reads the converged flow (transposed form) and
// assigns each node to its attractor: the destination with maximum
// flow. Attractor pointers are then collapsed (with cycle handling) so
// that nodes flowing to the same sink share a cluster id.
func extractClusters(flow *matrix.CSR) ([]int, int) {
	n := flow.Rows
	parent := make([]int32, n)
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

	root := make([]int32, n)
	for i := range root {
		root[i] = -1
	}
	state := make([]int8, n) // 0 unvisited, 1 on stack, 2 done
	var stack []int32
	for s := 0; s < n; s++ {
		if state[s] == 2 {
			continue
		}
		stack = stack[:0]
		u := int32(s)
		for state[u] == 0 {
			state[u] = 1
			stack = append(stack, u)
			u = parent[u]
		}
		var r int32
		if state[u] == 1 {
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
			state[v] = 2
		}
	}

	ids := make(map[int32]int)
	assign := make([]int, n)
	for i, r := range root {
		id, ok := ids[r]
		if !ok {
			id = len(ids)
			ids[r] = id
		}
		assign[i] = id
	}
	return assign, len(ids)
}
