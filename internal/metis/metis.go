// Package metis implements a multilevel k-way graph partitioner in the
// style of Metis (Karypis & Kumar, SIAM J. Sci. Comput. 1999): k-way
// partitioning by recursive bisection, where each bisection coarsens
// the graph by heavy-edge matching, computes an initial split by greedy
// graph growing, and refines the split at every level with
// Fiduccia–Mattheyses boundary moves under a balance constraint.
//
// Unlike the original (integer-weighted) Metis, edge weights here are
// float64, because symmetrized similarity graphs carry real-valued
// weights.
package metis

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
)

// Options configures Partition.
type Options struct {
	// Imbalance is the allowed load imbalance: each part may weigh up to
	// (1+Imbalance)·target. Defaults to 0.1.
	Imbalance float64
	// CoarsenTo is the node count at which coarsening stops within each
	// bisection. Defaults to 64.
	CoarsenTo int
	// InitTrials is the number of greedy-graph-growing attempts for the
	// initial bisection; the best cut wins. Defaults to 8.
	InitTrials int
	// RefinePasses bounds the FM passes per level. Defaults to 8.
	RefinePasses int
	// Seed drives all randomised choices.
	Seed int64
}

func (o *Options) fill() {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.1
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 64
	}
	if o.InitTrials <= 0 {
		o.InitTrials = 8
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
}

// Result carries the partitioning output.
type Result struct {
	// Assign maps each node to a part in [0, K).
	Assign []int
	// K is the requested number of parts.
	K int
	// EdgeCut is the total weight of edges crossing between parts.
	EdgeCut float64
}

// Partition splits the symmetric weighted adjacency adj into k parts.
func Partition(adj *matrix.CSR, k int, opt Options) (*Result, error) {
	return PartitionCtx(context.Background(), adj, k, opt)
}

// PartitionCtx is Partition with cancellation: ctx is polled at the
// entry of every recursive bisection, before each coarsening level and
// before each k-way refinement pass, so a cancelled context aborts the
// partitioning within one bisection stage with ctx's error.
func PartitionCtx(ctx context.Context, adj *matrix.CSR, k int, opt Options) (*Result, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("metis: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("metis: k = %d, want >= 1", k)
	}
	if k > adj.Rows && adj.Rows > 0 {
		return nil, fmt.Errorf("metis: k = %d exceeds node count %d", k, adj.Rows)
	}
	opt.fill()
	rng := rand.New(rand.NewSource(opt.Seed))

	n := adj.Rows
	assign := make([]int, n)
	if k > 1 && n > 0 {
		nodes := make([]int32, n)
		for i := range nodes {
			nodes[i] = int32(i)
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
		if err := recurse(ctx, adj, nodes, weights, k, 0, assign, opt, rng, newScratch(n)); err != nil {
			return nil, err
		}
		// Direct k-way boundary refinement across the seams the
		// recursive bisection optimised in isolation.
		maxPart := float64(n) / float64(k) * (1 + opt.Imbalance)
		assign = kwayRefine(ctx, adj, assign, k, maxPart, opt.RefinePasses)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return &Result{Assign: assign, K: k, EdgeCut: EdgeCut(adj, assign)}, nil
}

// EdgeCut returns the total weight of edges whose endpoints are in
// different parts (each undirected edge counted once).
func EdgeCut(adj *matrix.CSR, assign []int) float64 {
	var cut float64
	for i := 0; i < adj.Rows; i++ {
		cols, vals := adj.Row(i)
		for t, c := range cols {
			if int(c) > i && assign[i] != assign[c] {
				cut += vals[t]
			}
		}
	}
	return cut
}

// recurse bisects the subgraph induced by nodes into parts of size
// proportional to ceil(k/2) : floor(k/2), labels the halves starting at
// base and base+ceil(k/2), and recurses until k = 1.
func recurse(ctx context.Context, full *matrix.CSR, nodes []int32, weights []float64, k, base int, assign []int, opt Options, rng *rand.Rand, ws *scratch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if k == 1 {
		for _, v := range nodes {
			assign[v] = base
		}
		return nil
	}
	k1 := (k + 1) / 2
	k2 := k - k1
	frac := float64(k1) / float64(k)

	sub, subWeights := ws.induce(full, nodes, weights)
	side, err := bisect(ctx, sub, subWeights, frac, opt, rng, ws)
	if err != nil {
		return err
	}

	var left, right []int32
	var lw, rw []float64
	for i, v := range nodes {
		if side[i] == 0 {
			left = append(left, v)
			lw = append(lw, weights[i])
		} else {
			right = append(right, v)
			rw = append(rw, weights[i])
		}
	}
	// Each side must carry at least as many nodes as the parts it will
	// produce; weight-balanced bisections of small or skewed subgraphs
	// can violate that, so rebalance by moving surplus nodes across.
	for len(left) < k1 {
		last := len(right) - 1
		left = append(left, right[last])
		lw = append(lw, rw[last])
		right = right[:last]
		rw = rw[:last]
	}
	for len(right) < k2 {
		last := len(left) - 1
		right = append(right, left[last])
		rw = append(rw, lw[last])
		left = left[:last]
		lw = lw[:last]
	}
	if err := recurse(ctx, full, left, lw, k1, base, assign, opt, rng, ws); err != nil {
		return err
	}
	return recurse(ctx, full, right, rw, k2, base+k1, assign, opt, rng, ws)
}

// scratch is the storage one partitioning of an n-node graph reuses
// across its bisections, their levels and their FM passes.
type scratch struct {
	local  []int32 // induce: full-graph node → 1 + position in nodes; zero between calls
	locked []bool  // fmRefine: nodes moved or refused this pass
	moves  []int32 // fmRefine: the nodes this pass moved, in order
	pq     maxHeap
}

func newScratch(n int) *scratch {
	return &scratch{local: make([]int32, n), locked: make([]bool, n)}
}

// induce extracts the subgraph of full induced by nodes, along with the
// corresponding node weights, dropping self-loops and explicit zeros. A
// full row mapped through an increasing nodes list is already sorted;
// only the few nodes the rebalancing in recurse appends out of order
// displace entries, which an insertion sort puts back.
func (ws *scratch) induce(full *matrix.CSR, nodes []int32, weights []float64) (*matrix.CSR, []float64) {
	monotone, bound := true, 0
	for i, v := range nodes {
		ws.local[v] = int32(i) + 1
		monotone = monotone && (i == 0 || nodes[i-1] < v)
		bound += full.RowNNZ(int(v))
	}
	n := len(nodes)
	cs, vs := make([]int32, 0, bound), make([]float64, 0, bound)
	rowPtr := make([]int64, n+1)
	for i, v := range nodes {
		cols, vals := full.Row(int(v))
		lo := len(cs)
		for t, c := range cols {
			if j := ws.local[c] - 1; j >= 0 && int(j) != i && vals[t] != 0 {
				cs, vs = append(cs, j), append(vs, vals[t])
			}
		}
		for a := lo + 1; !monotone && a < len(cs); a++ {
			for b := a; b > lo && cs[b] < cs[b-1]; b-- {
				cs[b], cs[b-1], vs[b], vs[b-1] = cs[b-1], cs[b], vs[b-1], vs[b]
			}
		}
		rowPtr[i+1] = int64(len(cs))
	}
	for _, v := range nodes {
		ws.local[v] = 0
	}
	return &matrix.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: cs, Val: vs}, append([]float64(nil), weights...)
}

// bisect splits adj (with node weights) into sides 0/1, targeting
// fraction frac of the weight on side 0, by multilevel FM.
func bisect(ctx context.Context, adj *matrix.CSR, nodeWeight []float64, frac float64, opt Options, rng *rand.Rand, ws *scratch) ([]int, error) {
	n := adj.Rows
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return []int{0}, nil
	}
	h, err := multilevel.CoarsenCtx(ctx, adj, multilevel.Options{MinNodes: opt.CoarsenTo, Seed: rng.Int63()})
	if err != nil {
		// Cancellation or an injected fault; the only other failure mode
		// is a non-square input, which bisect never constructs.
		return nil, fmt.Errorf("metis: coarsening: %w", err)
	}
	// Aggregate true node weights through the hierarchy: the finest
	// level's weights are the caller's, not all-ones.
	levelWeights := make([][]float64, h.Depth())
	levelWeights[0] = nodeWeight
	for l := 1; l < h.Depth(); l++ {
		lev := h.Levels[l]
		w := make([]float64, lev.Adj.Rows)
		for fine, c := range lev.Map {
			w[c] += levelWeights[l-1][fine]
		}
		levelWeights[l] = w
	}

	coarse := h.Coarsest()
	side := initialBisection(coarse.Adj, levelWeights[h.Depth()-1], frac, opt, rng, ws)
	side = ws.fmRefine(coarse.Adj, levelWeights[h.Depth()-1], side, frac, opt)
	for l := h.Depth() - 1; l >= 1; l-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		side = h.Project(l, side)
		side = ws.fmRefine(h.Levels[l-1].Adj, levelWeights[l-1], side, frac, opt)
	}
	return side, nil
}

// initialBisection runs greedy graph growing InitTrials times and keeps
// the split with the lowest cut among balanced results.
func initialBisection(adj *matrix.CSR, nodeWeight []float64, frac float64, opt Options, rng *rand.Rand, ws *scratch) []int {
	var total float64
	for _, w := range nodeWeight {
		total += w
	}
	target := frac * total

	var best []int
	bestCut := math.Inf(1)
	for trial := 0; trial < opt.InitTrials; trial++ {
		side := ws.growRegion(adj, nodeWeight, target, rng)
		cut := EdgeCut(adj, side)
		if cut < bestCut {
			bestCut = cut
			best = side
		}
	}
	return best
}

// growRegion grows side 0 from a random seed by repeatedly absorbing
// the frontier node with the strongest connection to the region, until
// the region's weight reaches target.
func (ws *scratch) growRegion(adj *matrix.CSR, nodeWeight []float64, target float64, rng *rand.Rand) []int {
	n := adj.Rows
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	seed := rng.Intn(n)
	side[seed] = 0
	weight := nodeWeight[seed]

	gain := make([]float64, n)
	pq := &ws.pq
	*pq = (*pq)[:0]
	push := func(from int) {
		cols, vals := adj.Row(from)
		for t, c := range cols {
			if side[c] == 1 {
				gain[c] += vals[t]
				pq.push(heapItem{node: c, key: gain[c]})
			}
		}
	}
	push(seed)
	for weight < target && len(*pq) > 0 {
		it := pq.pop()
		if side[it.node] == 0 || it.key != gain[it.node] {
			continue // stale entry
		}
		side[it.node] = 0
		weight += nodeWeight[it.node]
		push(int(it.node))
	}
	// Disconnected remainder: absorb arbitrary nodes until balanced.
	if weight < target {
		for i := 0; i < n && weight < target; i++ {
			if side[i] == 1 {
				side[i] = 0
				weight += nodeWeight[i]
			}
		}
	}
	return side
}

// fmRefine performs Fiduccia–Mattheyses passes on a 2-way split: each
// pass tentatively moves every node once in best-gain-first order,
// tracks the best prefix that satisfies balance, and rolls back the
// rest. Passes repeat until a pass yields no improvement.
func (ws *scratch) fmRefine(adj *matrix.CSR, nodeWeight []float64, side []int, frac float64, opt Options) []int {
	n := adj.Rows
	var total float64
	for _, w := range nodeWeight {
		total += w
	}
	target0 := frac * total
	maxSide0 := target0 * (1 + opt.Imbalance)
	minSide0 := target0 * (1 - opt.Imbalance)
	if minSide0 < 0 {
		minSide0 = 0
	}

	var weight0, maxNodeW float64
	for i, s := range side {
		if s == 0 {
			weight0 += nodeWeight[i]
		}
		if nodeWeight[i] > maxNodeW {
			maxNodeW = nodeWeight[i]
		}
	}
	// In-pass bounds are relaxed by one node weight so that pairwise
	// swaps (move one node out, then one in) are reachable; only
	// strictly balanced prefixes are committed.
	loosMax := maxSide0 + maxNodeW
	loosMin := minSide0 - maxNodeW
	if loosMin < 0 {
		loosMin = 0
	}

	gain := make([]float64, n)
	computeGain := func(i int) float64 {
		cols, vals := adj.Row(i)
		var ext, intl float64
		for t, c := range cols {
			if side[c] == side[i] {
				intl += vals[t]
			} else {
				ext += vals[t]
			}
		}
		return ext - intl
	}

	pq, locked := &ws.pq, ws.locked[:n]
	for pass := 0; pass < opt.RefinePasses; pass++ {
		*pq = (*pq)[:0]
		clear(locked)
		for i := 0; i < n; i++ {
			gain[i] = computeGain(i)
			pq.push(heapItem{node: int32(i), key: gain[i]})
		}

		moves := ws.moves[:0]
		var cum, bestCum float64
		bestPrefix := -1
		w0 := weight0

		for len(*pq) > 0 {
			it := pq.pop()
			i := int(it.node)
			if locked[i] || it.key != gain[i] {
				continue
			}
			// Respect balance for this tentative move.
			var nw0 float64
			if side[i] == 0 {
				nw0 = w0 - nodeWeight[i]
			} else {
				nw0 = w0 + nodeWeight[i]
			}
			if nw0 > loosMax || nw0 < loosMin {
				locked[i] = true // cannot move this pass
				continue
			}
			locked[i] = true
			moved := gain[i]
			side[i] = 1 - side[i]
			w0 = nw0
			cum += moved
			moves = append(moves, int32(i))
			if cum > bestCum+1e-12 && w0 <= maxSide0 && w0 >= minSide0 {
				bestCum = cum
				bestPrefix = len(moves) - 1
			}
			// Update neighbour gains.
			cols, vals := adj.Row(i)
			for t, c := range cols {
				if locked[c] {
					continue
				}
				if side[c] == side[i] {
					gain[c] -= 2 * vals[t]
				} else {
					gain[c] += 2 * vals[t]
				}
				pq.push(heapItem{node: c, key: gain[c]})
			}
		}
		ws.moves = moves
		// Roll back moves after the best prefix.
		for m := len(moves) - 1; m > bestPrefix; m-- {
			i := moves[m]
			side[i] = 1 - side[i]
			if side[i] == 0 {
				weight0 += nodeWeight[i]
			} else {
				weight0 -= nodeWeight[i]
			}
		}
		// Recompute weight0 for the kept prefix.
		weight0 = 0
		for i, s := range side {
			if s == 0 {
				weight0 += nodeWeight[i]
			}
		}
		if bestPrefix < 0 {
			break // pass produced no improvement
		}
	}
	return side
}

// heapItem and maxHeap implement a max-heap of (node, key) with lazy
// invalidation: stale entries are skipped when their key no longer
// matches the node's current gain. push and pop make container/heap's
// comparisons and swaps in its order, so entries with equal keys (exact
// gain ties are common) pop in the order they always have, unboxed.
type heapItem struct {
	node int32
	key  float64
}

type maxHeap []heapItem

func (h *maxHeap) push(it heapItem) {
	s := append(*h, it)
	*h = s
	for j := len(s) - 1; j > 0 && s[j].key > s[(j-1)/2].key; j = (j - 1) / 2 {
		s[j], s[(j-1)/2] = s[(j-1)/2], s[j]
	}
}

func (h *maxHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i, j := 0, 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && s[j+1].key > s[j].key {
			j++ // the right child only when strictly larger
		}
		if !(s[j].key > s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	*h = s[:n]
	return s[n]
}
