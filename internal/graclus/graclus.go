// Package graclus implements a multilevel normalised-cut clusterer in
// the style of Graclus (Dhillon, Guan & Kulis, "Weighted Graph Cuts
// without Eigenvectors: A Multilevel Approach", TPAMI 2007): the graph
// is coarsened by heavy-edge matching, a base clustering is computed on
// the coarsest graph by region growing, and at every level the
// clustering is refined with weighted-kernel-k-means boundary moves
// that directly optimise the normalised cut objective — no eigenvector
// computation anywhere.
//
// The objective used throughout: minimising
//
//	NCut(C) = Σ_c cut(c)/deg(c) = k − Σ_c links(c,c)/deg(c)
//
// is equivalent to maximising Σ_c links(c,c)/deg(c), where links(c,c)
// is the total edge weight inside cluster c (self-loops included) and
// deg(c) the total weighted degree. The refinement evaluates the exact
// objective delta for moving a boundary node to any neighbouring
// cluster and applies the best strictly-improving move.
package graclus

import (
	"context"
	"fmt"
	"math/rand"

	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
)

// Options configures Cluster.
type Options struct {
	// CoarsenTo stops coarsening once the graph has at most
	// max(CoarsenTo, 4·k) nodes. Defaults to 256.
	CoarsenTo int
	// RefinePasses bounds the kernel-k-means passes per level.
	// Defaults to 10.
	RefinePasses int
	// Seed drives the randomised base clustering and coarsening.
	Seed int64
	// Hier, when bound to the adjacency being clustered, may answer the
	// coarsening from the hierarchy it keeps: same bits; nil builds one.
	Hier *multilevel.Memo
}

func (o *Options) fill() {
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 256
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 10
	}
}

// Result carries the clustering output.
type Result struct {
	// Assign maps each node to a cluster id in [0, K).
	Assign []int
	// K is the requested number of clusters.
	K int
	// NCut is the normalised cut of the final clustering.
	NCut float64
}

// ClusterCtx partitions the symmetric weighted adjacency adj into k
// clusters minimising normalised cut. ctx is polled before each
// coarsening level, each refinement level and each kernel-k-means pass,
// so a cancelled context aborts the clustering within one pass with
// ctx's error.
func ClusterCtx(ctx context.Context, adj *matrix.CSR, k int, opt Options) (*Result, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graclus: adjacency %dx%d not square", adj.Rows, adj.Cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("graclus: k = %d, want >= 1", k)
	}
	if k > adj.Rows && adj.Rows > 0 {
		return nil, fmt.Errorf("graclus: k = %d exceeds node count %d", k, adj.Rows)
	}
	opt.fill()
	rng := rand.New(rand.NewSource(opt.Seed))

	if adj.Rows == 0 {
		return &Result{Assign: []int{}, K: k}, nil
	}
	if k == 1 {
		return &Result{Assign: make([]int, adj.Rows), K: 1, NCut: 0}, nil
	}

	minNodes := opt.CoarsenTo
	if 4*k > minNodes {
		minNodes = 4 * k
	}
	h, err := opt.Hier.Coarsen(ctx, adj, multilevel.Options{MinNodes: minNodes, Seed: rng.Int63()})
	if err != nil {
		return nil, fmt.Errorf("graclus: coarsening: %w", err)
	}

	coarse := h.Coarsest()
	assign := baseClustering(coarse.Adj, k, rng)
	r := newRefiner(adj.Rows, k)
	assign = r.refine(ctx, coarse.Adj, assign, opt.RefinePasses)
	for level := h.Depth() - 1; level >= 1; level-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		assign = h.Project(level, assign)
		assign = r.refine(ctx, h.Levels[level-1].Adj, assign, opt.RefinePasses)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{Assign: assign, K: k, NCut: NCut(adj, assign, k)}, nil
}

// NCut returns the normalised cut Σ_c cut(c)/deg(c) of the assignment.
// Clusters with zero weighted degree contribute nothing.
func NCut(adj *matrix.CSR, assign []int, k int) float64 {
	cut := make([]float64, k)
	deg := make([]float64, k)
	for i := 0; i < adj.Rows; i++ {
		ci := assign[i]
		cols, vals := adj.Row(i)
		for t, c := range cols {
			deg[ci] += vals[t]
			if assign[c] != ci {
				cut[ci] += vals[t]
			}
		}
	}
	var total float64
	for c := 0; c < k; c++ {
		if deg[c] > 0 {
			total += cut[c] / deg[c]
		}
	}
	return total
}

// baseClustering produces an initial k-clustering of the coarsest graph
// by region growing from k random seeds, breadth-first with
// strongest-connection preference, then assigns leftovers arbitrarily.
func baseClustering(adj *matrix.CSR, k int, rng *rand.Rand) []int {
	n := adj.Rows
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	if k >= n {
		for i := range assign {
			assign[i] = i % k
		}
		return assign
	}
	seeds := rng.Perm(n)[:k]
	var frontier [][]int32
	frontier = make([][]int32, k)
	for c, s := range seeds {
		assign[s] = c
		frontier[c] = []int32{int32(s)}
	}
	remaining := n - k
	for remaining > 0 {
		progress := false
		for c := 0; c < k && remaining > 0; c++ {
			var next []int32
			for _, u := range frontier[c] {
				cols, _ := adj.Row(int(u))
				for _, v := range cols {
					if assign[v] == -1 {
						assign[v] = c
						remaining--
						next = append(next, v)
						progress = true
					}
				}
			}
			frontier[c] = next
		}
		if !progress {
			// Disconnected leftovers: spread them round-robin.
			c := 0
			for i := 0; i < n && remaining > 0; i++ {
				if assign[i] == -1 {
					assign[i] = c % k
					c++
					remaining--
				}
			}
		}
	}
	return assign
}

// refiner is the scratch of one ClusterCtx, allocated once and reset at
// every level: each node's weighted degree, the per-cluster totals of
// the objective Σ_c links(c)/deg(c) with q[c] = quotient(links, deg)
// beside them, and the row scan's slots.
type refiner struct {
	deg                                 []float64
	clusterDeg, clusterLinks, q, linkTo []float64
	clusterSize, touched                []int
}

func newRefiner(n, k int) *refiner {
	return &refiner{deg: make([]float64, n), clusterDeg: make([]float64, k), clusterLinks: make([]float64, k),
		q: make([]float64, k), linkTo: make([]float64, k), clusterSize: make([]int, k)}
}

// refine performs weighted-kernel-k-means boundary passes: for each
// node adjacent to another cluster, evaluate the exact NCut delta of
// moving it to each neighbouring cluster and apply the best improving
// move. Passes repeat until no move improves or the pass budget is
// exhausted. ctx is polled once per pass; a cancelled context stops
// refining early (the caller surfaces the cancellation).
func (r *refiner) refine(ctx context.Context, adj *matrix.CSR, assign []int, maxPasses int) []int {
	n := adj.Rows
	deg, clusterDeg, clusterLinks, q, linkTo, clusterSize := r.deg[:n], r.clusterDeg, r.clusterLinks, r.q, r.linkTo, r.clusterSize
	for c := range clusterSize {
		clusterDeg[c], clusterLinks[c], clusterSize[c] = 0, 0, 0
	}
	longest := 0
	for i := 0; i < n; i++ {
		c := assign[i]
		cols, vals := adj.Row(i)
		longest = max(longest, len(cols))
		var d float64 // the row's sum, as RowSums adds it
		for t, cc := range cols {
			d += vals[t]
			if assign[cc] == c {
				clusterLinks[c] += vals[t] // Σ internal edge weight, both directions + self-loops
			}
		}
		deg[i] = d
		clusterDeg[c] += d
		clusterSize[c]++
	}
	for c := range q {
		q[c] = quotient(clusterLinks[c], clusterDeg[c])
	}
	// A row records at most one cluster per entry — the same one again
	// after a stored zero, which leaves linkTo's first-touch mark unset —
	// so the longest row bounds the slots, and k does not.
	if longest > len(r.touched) {
		r.touched = make([]int, longest)
	}
	touched := r.touched

	for pass := 0; pass < maxPasses; pass++ {
		if ctx.Err() != nil {
			break
		}
		moved := 0
		for i := 0; i < n; i++ {
			a := assign[i]
			if clusterSize[a] <= 1 {
				continue // never empty a cluster
			}
			cols, vals := adj.Row(i)
			var selfLoop float64
			// The neighbours' clusters arrive in no order a predictor can
			// learn, so the slot is written every time and kept only on a
			// cluster's first touch: touched[:m] is in first-seen order.
			m := 0
			for t, c := range cols {
				if int(c) == i {
					selfLoop = vals[t]
					continue
				}
				cc := assign[c]
				l := linkTo[cc]
				touched[m] = cc
				m += b2i(l == 0)
				linkTo[cc] = l + vals[t]
			}
			// Objective value contributed by clusters a and b before and
			// after moving i from a to b. Moving i: links(a) loses
			// 2·linkTo[a] + selfLoop; links(b) gains 2·linkTo[b] + selfLoop.
			cur := q[a]
			newA := quotient(clusterLinks[a]-2*linkTo[a]-selfLoop, clusterDeg[a]-deg[i])
			bestDelta := 0.0
			bestB := -1
			for _, b := range touched[:m] {
				if b == a {
					continue
				}
				newB := quotient(clusterLinks[b]+2*linkTo[b]+selfLoop, clusterDeg[b]+deg[i])
				delta := (newA + newB) - (cur + q[b])
				if delta > bestDelta+1e-12 {
					bestDelta = delta
					bestB = b
				}
			}
			if bestB >= 0 {
				b := bestB
				clusterLinks[a] -= 2*linkTo[a] + selfLoop
				clusterLinks[b] += 2*linkTo[b] + selfLoop
				clusterDeg[a] -= deg[i]
				clusterDeg[b] += deg[i]
				q[a] = quotient(clusterLinks[a], clusterDeg[a])
				q[b] = quotient(clusterLinks[b], clusterDeg[b])
				clusterSize[a]--
				clusterSize[b]++
				assign[i] = b
				moved++
			}
			for _, c := range touched[:m] {
				linkTo[c] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
	return assign
}

// b2i is 1 for true: a count advanced by it is a flag read, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quotient returns num/den, or 0 when the denominator vanishes (an
// empty or degree-less cluster contributes nothing to the objective).
func quotient(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
