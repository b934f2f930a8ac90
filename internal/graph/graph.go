// Package graph provides the directed- and undirected-graph substrate
// for symcluster: graph types over CSR adjacency matrices, node labels,
// edge-list I/O, degree statistics (Figure 4), symmetric-link
// percentages (Table 1) and top-weight edge extraction (Table 5).
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"symcluster/internal/matrix"
)

// Directed is a weighted directed graph. Adj[i][j] > 0 means an edge
// i → j. Labels, when present, give human-readable node names (used by
// the Table 5 experiment and the case studies); a nil Labels slice is
// valid and means anonymous nodes.
type Directed struct {
	Adj    *matrix.CSR
	Labels []string
}

// NewDirected wraps an adjacency matrix as a directed graph. The matrix
// must be square; labels may be nil or must match the node count.
func NewDirected(adj *matrix.CSR, labels []string) (*Directed, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency matrix %dx%d not square", adj.Rows, adj.Cols)
	}
	if labels != nil && len(labels) != adj.Rows {
		return nil, fmt.Errorf("graph: %d labels for %d nodes", len(labels), adj.Rows)
	}
	return &Directed{Adj: adj, Labels: labels}, nil
}

// N returns the number of nodes.
func (g *Directed) N() int { return g.Adj.Rows }

// M returns the number of directed edges (stored entries).
func (g *Directed) M() int { return g.Adj.NNZ() }

// Label returns the label for node i, or its index rendered as text
// when the graph is unlabelled.
func (g *Directed) Label(i int) string {
	if g.Labels != nil {
		return g.Labels[i]
	}
	return fmt.Sprintf("v%d", i)
}

// Fingerprint returns a 64-bit FNV-1a hash of the graph's structure
// and weights (dimensions, row extents, column indices, edge weights,
// each as eight little-endian bytes). Two graphs with identical
// adjacency matrices hash identically regardless of labels, so the
// fingerprint can key caches of derived quantities such as symmetrized
// graphs.
func (g *Directed) Fingerprint() uint64 {
	h := fnvWord(fnvOffset, uint64(g.Adj.Rows))
	h = fnvWord(h, uint64(g.Adj.NNZ()))
	for _, p := range g.Adj.RowPtr {
		h = fnvWord(h, uint64(p))
	}
	for _, c := range g.Adj.ColIdx {
		h = fnvWord(h, uint64(c))
	}
	for _, v := range g.Adj.Val {
		h = fnvWord(h, math.Float64bits(v))
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime^k mod 2^64.
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// fnvWord hashes v's eight little-endian bytes into h as hash/fnv's
// New64a would. A zero byte's step is (h ^ 0)·prime, so the zero bytes
// below v's lowest set byte and above its highest — the top of every
// index, the bottom of every 1.0 — each fold into one multiplication by
// a power of the prime.
func fnvWord(h, v uint64) uint64 {
	if v == 0 {
		return h * fnvPrimePow[8]
	}
	low := bits.TrailingZeros64(v) / 8
	h *= fnvPrimePow[low]
	left := 8 - low
	for v >>= 8 * low; v != 0; v >>= 8 {
		h = (h ^ (v & 0xff)) * fnvPrime
		left--
	}
	return h * fnvPrimePow[left]
}

// OutDegrees returns the unweighted out-degree of every node.
func (g *Directed) OutDegrees() []int { return g.Adj.RowCounts() }

// InDegrees returns the unweighted in-degree of every node.
func (g *Directed) InDegrees() []int { return g.Adj.ColCounts() }

// SymmetricLinkFraction returns the fraction of directed edges (i, j)
// for which the reciprocal edge (j, i) also exists. This is the
// "percentage of symmetric links" column of Table 1 (as a fraction).
// Self-loops count as symmetric. Returns 0 for an edgeless graph.
func (g *Directed) SymmetricLinkFraction() float64 {
	m := g.M()
	if m == 0 {
		return 0
	}
	// Count in place, no transpose: each reciprocal pair is found once,
	// from its lower-numbered end, in the other end's row. Rows are
	// visited in ascending i, so the i a row j is asked about only grows:
	// one cursor per row, never moved back, replaces a search.
	recip := 0
	cursor := slices.Clone(g.Adj.RowPtr[:g.N()])
	for i := 0; i < g.N(); i++ {
		cols, _ := g.Adj.Row(i)
		for _, j := range cols {
			if int(j) == i {
				recip++
			} else if int(j) > i {
				p, end := cursor[j], g.Adj.RowPtr[j+1]
				for p < end && g.Adj.ColIdx[p] < int32(i) {
					p++
				}
				cursor[j] = p
				if p < end && g.Adj.ColIdx[p] == int32(i) {
					recip += 2
				}
			}
		}
	}
	return float64(recip) / float64(m)
}

// Undirected is a weighted undirected graph stored as a symmetric
// adjacency matrix (both triangles present). It is the output type of
// every symmetrization.
type Undirected struct {
	Adj    *matrix.CSR
	Labels []string
}

// NewUndirected wraps a symmetric adjacency matrix. It validates
// squareness but, for cost reasons, only spot-checks symmetry when the
// graph is small; callers constructing adjacencies by hand should pass
// matrices they know to be symmetric (all symmetrizations do).
func NewUndirected(adj *matrix.CSR, labels []string) (*Undirected, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency matrix %dx%d not square", adj.Rows, adj.Cols)
	}
	if labels != nil && len(labels) != adj.Rows {
		return nil, fmt.Errorf("graph: %d labels for %d nodes", len(labels), adj.Rows)
	}
	if adj.Rows <= 1024 && !adj.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("graph: adjacency matrix not symmetric")
	}
	return &Undirected{Adj: adj, Labels: labels}, nil
}

// N returns the number of nodes.
func (g *Undirected) N() int { return g.Adj.Rows }

// M returns the number of undirected edges: off-diagonal stored entries
// divided by two, plus self-loops.
func (g *Undirected) M() int {
	loops := 0
	for i := 0; i < g.N(); i++ {
		if g.Adj.At(i, i) != 0 {
			loops++
		}
	}
	return (g.Adj.NNZ()-loops)/2 + loops
}

// Label returns the label for node i.
func (g *Undirected) Label(i int) string {
	if g.Labels != nil {
		return g.Labels[i]
	}
	return fmt.Sprintf("v%d", i)
}

// Degrees returns the unweighted degree (stored neighbours) per node.
func (g *Undirected) Degrees() []int { return g.Adj.RowCounts() }

// WeightedDegrees returns the weighted degree (row sum) per node, the
// quantity normalised cuts are defined over.
func (g *Undirected) WeightedDegrees() []float64 { return g.Adj.RowSums() }

// Edge is one weighted edge, used for ranked edge reports (Table 5).
type Edge struct {
	U, V   int
	Weight float64
}

// TopEdges returns the k heaviest edges of the undirected graph in
// descending weight order, counting each {u,v} pair once (u < v) and
// ignoring self-loops. Ties break by (u, v) for determinism.
func (g *Undirected) TopEdges(k int) []Edge {
	var edges []Edge
	for i := 0; i < g.N(); i++ {
		cols, vals := g.Adj.Row(i)
		for t, c := range cols {
			if int(c) > i {
				edges = append(edges, Edge{U: i, V: int(c), Weight: vals[t]})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ea.Weight != eb.Weight {
			return ea.Weight > eb.Weight
		}
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	})
	if k < len(edges) {
		edges = edges[:k]
	}
	return edges
}

// ConnectedComponents labels each node of the undirected graph with a
// component id in [0, count) and returns the labels and component count.
func (g *Undirected) ConnectedComponents() (labels []int, count int) {
	n := g.N()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int32
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cols, _ := g.Adj.Row(int(u))
			for _, v := range cols {
				if labels[v] == -1 {
					labels[v] = count
					stack = append(stack, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// Singletons returns the number of isolated nodes (no incident edges,
// self-loops excluded). The paper uses singleton counts to show why
// pruned Bibliometric graphs are not viable (§5.3).
func (g *Undirected) Singletons() int {
	n := 0
	for i := 0; i < g.N(); i++ {
		cols, _ := g.Adj.Row(i)
		isolated := true
		for _, c := range cols {
			if int(c) != i {
				isolated = false
				break
			}
		}
		if isolated {
			n++
		}
	}
	return n
}

// DegreeHistogram bins a degree sequence into logarithmic buckets
// [1,2), [2,4), [4,8), … and returns the per-bucket node counts plus a
// count of degree-zero nodes. This reproduces the Figure 4 view of the
// symmetrized Wikipedia graphs.
type DegreeHistogram struct {
	Zero    int   // nodes with degree 0
	Buckets []int // Buckets[b] counts nodes with degree in [2^b, 2^(b+1))
}

// HistogramDegrees builds a DegreeHistogram from a degree sequence.
func HistogramDegrees(degrees []int) DegreeHistogram {
	var h DegreeHistogram
	for _, d := range degrees {
		if d <= 0 {
			h.Zero++
			continue
		}
		b := int(math.Log2(float64(d)))
		for len(h.Buckets) <= b {
			h.Buckets = append(h.Buckets, 0)
		}
		h.Buckets[b]++
	}
	return h
}

// MaxDegree returns the largest value in the degree sequence, 0 when
// empty.
func MaxDegree(degrees []int) int {
	mx := 0
	for _, d := range degrees {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// MedianDegree returns the median of the degree sequence (lower median
// for even lengths), 0 when empty.
func MedianDegree(degrees []int) int {
	if len(degrees) == 0 {
		return 0
	}
	s := append([]int(nil), degrees...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

// MeanDegree returns the arithmetic mean of the degree sequence.
func MeanDegree(degrees []int) float64 {
	if len(degrees) == 0 {
		return 0
	}
	sum := 0
	for _, d := range degrees {
		sum += d
	}
	return float64(sum) / float64(len(degrees))
}
