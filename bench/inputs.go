package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"symcluster/internal/cluster"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
)

// Peer names of the serve_mixed cluster. They are fixed strings, not
// host:port, so ring positions — and with them which graphs are
// proxied — do not move with the ephemeral ports.
var peerNames = []string{"bench-node-0", "bench-node-1"}

// rmatBase is one seed-derived R-MAT graph in the edge-list text a
// client uploads.
type rmatBase struct {
	g    *graph.Directed
	text []byte
}

func genRMAT(scale int, seed int64) (*graph.Directed, error) {
	d, err := gen.Kronecker(gen.KroneckerOptions{
		Scale: scale, EdgeFactor: rmatEdgeFactor, Reciprocity: rmatReciprocity, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return d.Graph, nil
}

func newRMATBase(scale int, seed int64) (*rmatBase, error) {
	g, err := genRMAT(scale, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	return &rmatBase{g: g, text: buf.Bytes()}, nil
}

// repeatLine is the extra edge-list line that makes variant v of a
// base: edge number v again. The parser sums duplicates, so the edge's
// weight becomes 2 — the fingerprint (and so graph id and cache key)
// differs from every other variant while the work does not. Negative v
// counts from the last edge; set-up warms up on those, so a measured op
// never meets a graph the server has seen.
func (b *rmatBase) repeatLine(v int) string {
	m := b.g.M()
	e := ((v % m) + m) % m
	row := sort.Search(b.g.N(), func(i int) bool { return b.g.Adj.RowPtr[i+1] > int64(e) })
	return fmt.Sprintf("%d %d\n", row, b.g.Adj.ColIdx[e])
}

// nodes is the node count the server derives from the uploaded text:
// one more than the largest id that has an edge.
func (b *rmatBase) nodes() int {
	adj := b.g.Adj
	top := 0
	for i := adj.Rows - 1; i >= 0; i-- {
		if adj.RowNNZ(i) > 0 {
			top = i
			break
		}
	}
	for _, c := range adj.ColIdx {
		if int(c) > top {
			top = int(c)
		}
	}
	return top + 1
}

func genWiki(clusters int, seed int64) (*gen.Dataset, error) {
	return gen.Wiki(gen.WikiOptions{
		ListClusters: clusters, RecipClusters: clusters,
		ListMembersMin: listMembers, ListMembersMax: listMembers,
		RecipMembersMin: recipMembers, RecipMembersMax: recipMembers,
		Seed: seed,
	})
}

// servingGraph is one pre-registered Wikipedia-like graph.
type servingGraph struct {
	ds      *gen.Dataset
	text    []byte
	id      string // content-derived id the server will assign
	proxied bool   // owned by a node other than the entry node
}

func newServingGraph(clusters int, seed int64) (*servingGraph, error) {
	ds, err := genWiki(clusters, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, ds.Graph); err != nil {
		return nil, err
	}
	return &servingGraph{
		ds:   ds,
		text: buf.Bytes(),
		id:   fmt.Sprintf("g-%016x", ds.Graph.Fingerprint()),
	}, nil
}

// servingSet draws Wikipedia-like graphs in seed order. On one node it
// takes the first servingGraphs; on two it keeps drawing until each node
// owns half of them, so the proxied share of a schedule that uses both
// halves evenly is 0.5 by construction. The entry node's graphs come
// first in the returned slice.
func servingSet(sz sizes, seed int64, nodes int) ([]*servingGraph, error) {
	peers := make([]*cluster.Peer, nodes)
	for i := range peers {
		peers[i] = &cluster.Peer{Name: peerNames[i], Weight: 1}
	}
	ring := cluster.NewRing(peers, 0)
	wantLocal, wantRemote := servingGraphs, 0
	if nodes > 1 {
		wantLocal, wantRemote = servingGraphs/2, servingGraphs/2
	}
	var local, remote []*servingGraph
	for draw := int64(0); len(local) < wantLocal || len(remote) < wantRemote; draw++ {
		g, err := newServingGraph(sz.wikiClusters, seed*1000+draw)
		if err != nil {
			return nil, err
		}
		owner, _ := ring.Owner(g.ds.Graph.Fingerprint(), nil)
		g.proxied = owner.Name != peerNames[0]
		if g.proxied && len(remote) < wantRemote {
			remote = append(remote, g)
		} else if !g.proxied && len(local) < wantLocal {
			local = append(local, g)
		}
	}
	return append(local, remote...), nil
}

// mixedOp is one entry of the serve_mixed block.
type mixedOp struct {
	algo    string
	async   bool
	method  string
	proxied bool
	slot    int // which of the owner's graphs, rotated by block number
}

// mixedBlock is the fixed 20-op serve_mixed block: 17 sync graclus, 1
// sync metis, 2 async graclus; dd 11, aat/bib/rw 3 each; 10 ops on each
// node's graphs. The seed shuffles only the order, so every seed does
// the same work. metis (5%) and async (10%) are the slow tail, so p90
// falls inside the async class and p50 inside sync graclus rather than
// on a class boundary.
func mixedBlock(seed int64) []mixedOp {
	methods := []string{
		"dd", "dd", "dd", // metis, async proxied, async direct
		"dd", "aat", "dd", "bib", "dd", "rw", "dd", "aat", "dd", "bib",
		"dd", "rw", "dd", "aat", "dd", "bib", "rw",
	}
	block := make([]mixedOp, len(methods))
	for i := range block {
		op := mixedOp{algo: "graclus", method: methods[i], proxied: i%2 == 1, slot: (i / 2) % (servingGraphs / 2)}
		switch i {
		case 0:
			op.algo = "metis"
		case 1, 2:
			op.async = true
		}
		block[i] = op
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}
