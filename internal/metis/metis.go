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
	"slices"

	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
)

// Options configures PartitionCtx.
type Options struct {
	// Seed drives all randomised choices.
	Seed int64
	// Hier, when bound to the adjacency being partitioned, may answer the
	// first bisection's coarsening from the hierarchy it keeps: same bits;
	// nil builds one.
	Hier *multilevel.Memo
}

const (
	// imbalance is the allowed load imbalance: each part may weigh up to
	// (1+imbalance)·target.
	imbalance = 0.1
	// coarsenTo is the node count at which coarsening stops within each
	// bisection.
	coarsenTo = 64
	// initTrials is the number of greedy-graph-growing attempts for the
	// initial bisection; the best cut wins.
	initTrials = 8
	// refinePasses bounds the FM passes per level.
	refinePasses = 8
)

// Result carries the partitioning output.
type Result struct {
	// Assign maps each node to a part in [0, K).
	Assign []int
	// K is the requested number of parts.
	K int
}

// PartitionCtx splits the symmetric weighted adjacency adj into k
// parts. ctx is polled at the entry of every recursive bisection, before
// each coarsening level and before each k-way refinement pass, so a
// cancelled context aborts the partitioning within one bisection stage
// with ctx's error. It runs in a workspace from a free list, so a warm
// call allocates its answer and no buffer.
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

	n := adj.Rows
	assign := make([]int, n)
	if k > 1 && n > 0 {
		ws := workspaces.Get()
		err := ws.partition(ctx, adj, k, opt, assign)
		// Not deferred: a panicked call's workspace goes with it.
		ws.hier = nil
		ws.coarse.Release()
		workspaces.Put(ws)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Assign: assign, K: k}, nil
}

// partition is PartitionCtx's run on n ≥ k > 1 nodes, into assign.
func (ws *workspace) partition(ctx context.Context, adj *matrix.CSR, k int, opt Options, assign []int) error {
	n := adj.Rows
	ws.local, ws.locked = multilevel.Resize(ws.local, n), multilevel.Resize(ws.locked, n)
	clear(ws.local)
	ws.rng.Seed(opt.Seed)
	ws.hier = opt.Hier
	ws.nodes = multilevel.Resize(ws.nodes, n)
	for i := range ws.nodes {
		ws.nodes[i] = int32(i)
	}
	if err := recurse(ctx, adj, ws.nodes, k, 0, assign, ws.rng, ws); err != nil {
		return err
	}
	// Direct k-way boundary refinement across the seams the
	// recursive bisection optimised in isolation.
	maxPart := float64(n) / float64(k) * (1 + imbalance)
	ws.kwayRefine(ctx, adj, assign, k, maxPart, refinePasses)
	return ctx.Err()
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
// base and base+ceil(k/2), and recurses until k = 1. It reorders nodes
// in place, each half after the other. Every node weighs 1.
func recurse(ctx context.Context, full *matrix.CSR, nodes []int32, k, base int, assign []int, rng *rand.Rand, ws *workspace) error {
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

	side, err := bisect(ctx, ws.induce(full, nodes), frac, rng, ws)
	if err != nil {
		return err
	}

	// Side 0 keeps its order at the front of nodes, side 1 waits in
	// ws.right and follows it.
	nl, right := 0, ws.right[:0]
	for i, v := range nodes {
		if side[i] == 0 {
			nodes[nl] = v
			nl++
		} else {
			right = append(right, v)
		}
	}
	// Each side must carry at least as many nodes as the parts it will
	// produce; weight-balanced bisections of small or skewed subgraphs
	// can violate that, so rebalance by moving surplus nodes across.
	for ; nl < k1; nl++ {
		nodes[nl] = right[len(right)-1]
		right = right[:len(right)-1]
	}
	for ; len(right) < k2; nl-- {
		right = append(right, nodes[nl-1])
	}
	ws.right = right
	copy(nodes[nl:], right)
	if err := recurse(ctx, full, nodes[:nl], k1, base, assign, rng, ws); err != nil {
		return err
	}
	return recurse(ctx, full, nodes[nl:], k2, base+k1, assign, rng, ws)
}

// workspace is every buffer a PartitionCtx call uses across its
// bisections, their levels and their FM passes. Each is resized to the
// graph at hand and written before it is read, which is why a reused
// workspace gives a fresh one's bits.
type workspace struct {
	rng                *rand.Rand
	nodes              []int32            // every node, which recurse splits in place
	right              []int32            // recurse: side 1 before it is written back
	local              []int32            // induce: full-graph node → 1 + position in nodes; zero between calls
	sub                matrix.CSR         // induce: the last subgraph's arrays
	coarse             multilevel.Scratch // bisect: every hierarchy no memo answers for
	sides              [2][]int           // bisect: the split, and the buffer the next one is written into
	gain               []float64          // growRegion, fmRefine
	locked             []bool             // fmRefine: nodes moved or refused this pass
	moves              []int32            // fmRefine: the nodes this pass moved, in order
	pq                 maxHeap
	partWeight, linkTo []float64        // kwayRefine
	touched            []int            // kwayRefine
	hier               *multilevel.Memo // bisect: answers for the whole graph, if bound to it
}

var workspaces = multilevel.NewFreeList(newWorkspace)

func newWorkspace() *workspace { return &workspace{rng: rand.New(rand.NewSource(0))} }

// induce extracts the subgraph of full induced by nodes, dropping
// self-loops and explicit zeros. Asked for every node of a graph that
// has neither, it returns full itself, which a memo may recognise;
// otherwise it refills ws.sub, which lives until the next call: a
// subgraph is dead once its bisection returns. A full row mapped through
// an increasing nodes list is already sorted; only the few nodes the
// rebalancing in recurse appends out of order displace entries, which an
// insertion sort puts back.
func (ws *workspace) induce(full *matrix.CSR, nodes []int32) *matrix.CSR {
	n := len(nodes)
	if n == full.Rows && slices.IsSorted(nodes) && plain(full) {
		return full // distinct, sorted and n of them: nodes is 0 … n-1
	}
	monotone, bound := true, 0
	for i, v := range nodes {
		ws.local[v] = int32(i) + 1
		monotone = monotone && (i == 0 || nodes[i-1] < v)
		bound += full.RowNNZ(int(v))
	}
	cs, vs := slices.Grow(ws.sub.ColIdx[:0], bound), slices.Grow(ws.sub.Val[:0], bound)
	rowPtr := append(slices.Grow(ws.sub.RowPtr[:0], n+1), 0)
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
		rowPtr = append(rowPtr, int64(len(cs)))
	}
	for _, v := range nodes {
		ws.local[v] = 0
	}
	ws.sub = matrix.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: cs, Val: vs}
	return &ws.sub
}

// plain reports whether adj stores no self-loop and no zero: whether
// inducing it on all of its nodes would copy it unchanged.
func plain(adj *matrix.CSR) bool {
	for i := 0; i < adj.Rows; i++ {
		cols, vals := adj.Row(i)
		for t, c := range cols {
			if int(c) == i || vals[t] == 0 {
				return false
			}
		}
	}
	return true
}

// bisect splits adj (two nodes or more) into sides 0/1, targeting
// fraction frac of the weight on side 0, by multilevel FM: a level's
// node weights count the finest nodes each coarse one holds. The split
// is one of ws.sides and lives until the next bisect.
func bisect(ctx context.Context, adj *matrix.CSR, frac float64, rng *rand.Rand, ws *workspace) ([]int, error) {
	h, err := ws.hier.Coarsen(ctx, adj, multilevel.Options{MinNodes: coarsenTo, Seed: rng.Int63()}, &ws.coarse)
	if err != nil {
		// Cancellation or an injected fault; the only other failure mode
		// is a non-square input, which bisect never constructs.
		return nil, fmt.Errorf("metis: coarsening: %w", err)
	}
	coarse := h.Coarsest()
	cur := ws.initialBisection(coarse.Adj, coarse.NodeWeight, frac, rng)
	ws.fmRefine(coarse.Adj, coarse.NodeWeight, ws.sides[cur], frac)
	for l := h.Depth() - 1; l >= 1; l-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ws.sides[1-cur] = h.Project(l, ws.sides[cur], ws.sides[1-cur])
		cur = 1 - cur
		ws.fmRefine(h.Levels[l-1].Adj, h.Levels[l-1].NodeWeight, ws.sides[cur], frac)
	}
	return ws.sides[cur], nil
}

// initialBisection runs greedy graph growing initTrials times and keeps
// the split with the lowest cut among balanced results — or, when no cut
// is below +Inf (an overflowed weight), the first. It returns which of
// ws.sides holds it.
func (ws *workspace) initialBisection(adj *matrix.CSR, nodeWeight []float64, frac float64, rng *rand.Rand) int {
	var total float64
	for _, w := range nodeWeight {
		total += w
	}
	target := frac * total

	best := -1
	bestCut := math.Inf(1)
	for trial := 0; trial < initTrials; trial++ {
		t := 1 - max(best, 0) // the buffer best is not in
		ws.sides[t] = ws.growRegion(adj, nodeWeight, target, rng, ws.sides[t])
		if cut := EdgeCut(adj, ws.sides[t]); cut < bestCut {
			bestCut = cut
			best = t
		} else if best < 0 {
			best = t
		}
	}
	return best
}

// growRegion grows side 0 from a random seed by repeatedly absorbing
// the frontier node with the strongest connection to the region, until
// the region's weight reaches target. The split is written into dst
// (resized).
func (ws *workspace) growRegion(adj *matrix.CSR, nodeWeight []float64, target float64, rng *rand.Rand, dst []int) []int {
	n := adj.Rows
	side := multilevel.Resize(dst, n)
	for i := range side {
		side[i] = 1
	}
	seed := rng.Intn(n)
	side[seed] = 0
	weight := nodeWeight[seed]

	gain := multilevel.Resize(ws.gain, n)
	ws.gain = gain
	clear(gain)
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
// rest. Passes repeat until a pass yields no improvement. A pass ends
// when the last free node is popped: what the heap still holds is stale.
func (ws *workspace) fmRefine(adj *matrix.CSR, nodeWeight []float64, side []int, frac float64) []int {
	n := adj.Rows
	var total float64
	for _, w := range nodeWeight {
		total += w
	}
	target0 := frac * total
	maxSide0 := target0 * (1 + imbalance)
	minSide0 := target0 * (1 - imbalance)
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

	gain := multilevel.Resize(ws.gain, n)
	ws.gain = gain
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
	for pass := 0; pass < refinePasses; pass++ {
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

		for free := n; free > 0 && len(*pq) > 0; { // a NaN gain never pops current
			it := pq.pop()
			i := int(it.node)
			if locked[i] || it.key != gain[i] {
				continue
			}
			free--
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
			side[moves[m]] = 1 - side[moves[m]]
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
// matches the node's current gain. push and pop leave the array
// container/heap leaves, so entries with equal keys (exact gain ties are
// common) pop in the order they always have, unboxed.
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

// pop walks down once (Floyd): the hole at the root follows the path
// container/heap's sift-down would take — the right child only when
// strictly larger — to the bottom, and the last item is lifted back up
// while it is >= its parent. For keys that are not NaN it lands where
// the top-down sift stops, since keys fall along the path, and what it
// passed on the way down returns to its slot.
func (h *maxHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	i := 0
	for j := 1; j+1 < n; j = 2*i + 1 {
		j += b2i(s[j+1].key > s[j].key)
		s[i] = s[j]
		i = j
	}
	if j := 2*i + 1; j < n {
		s[i] = s[j]
		i = j
	}
	for i > 0 && last.key >= s[(i-1)/2].key {
		s[i] = s[(i-1)/2]
		i = (i - 1) / 2
	}
	s[i], s[n] = last, top
	*h = s[:n]
	return top
}

// b2i is 1 for true: an index advanced by it is a flag read, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
