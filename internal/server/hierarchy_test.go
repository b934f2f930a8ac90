package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"

	symcluster "symcluster"
	"symcluster/internal/faultinject"
	"symcluster/internal/gen"
	"symcluster/internal/graclus"
	"symcluster/internal/graph"
	"symcluster/internal/metis"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
	"symcluster/internal/pipeline"
)

// servingWiki is one graph of the repository benchmark's serving family
// (Wikipedia-like, 8 list and 8 reciprocal clusters, ≈540 nodes) and its
// edge-list upload.
func servingWiki(tb testing.TB) (*gen.Dataset, []byte) {
	tb.Helper()
	ds, err := gen.Wiki(gen.WikiOptions{
		ListClusters: 8, RecipClusters: 8,
		ListMembersMin: 20, ListMembersMax: 20,
		RecipMembersMin: 28, RecipMembersMax: 28,
		Seed: 1000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, ds.Graph); err != nil {
		tb.Fatal(err)
	}
	return ds, edges.Bytes()
}

// symmetrized runs one symmetrization of an upload through the library,
// for a test that needs to know what the daemon will cache.
func symmetrized(t *testing.T, edges []byte, method string, threshold float64) *symcluster.UndirectedGraph {
	t.Helper()
	g, err := graph.ReadEdgeList(bytes.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	run, err := pipeline.Resolve(pipeline.Request{Method: method, Algorithm: "metis", K: 2, Threshold: threshold}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	_, u, err := run.Execute(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// graclusHierarchy is the hierarchy a Graclus request with this seed and
// k ≤ 64 coarsens u into: asked of a memo that kept it, the kept one.
func graclusHierarchy(t *testing.T, memo *multilevel.Memo, u *symcluster.UndirectedGraph, seed int64) *multilevel.Hierarchy {
	t.Helper()
	h, err := memo.Coarsen(context.Background(), u.Adj,
		multilevel.Options{MinNodes: 256, Seed: rand.New(rand.NewSource(seed)).Int63()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// hierarchySum hashes every array of every level.
func hierarchySum(h *multilevel.Hierarchy) uint64 {
	sum := fnv.New64a()
	for _, lev := range h.Levels {
		binary.Write(sum, binary.LittleEndian, lev.Adj.RowPtr)
		binary.Write(sum, binary.LittleEndian, lev.Adj.ColIdx)
		binary.Write(sum, binary.LittleEndian, lev.Adj.Val)
		binary.Write(sum, binary.LittleEndian, lev.NodeWeight)
		binary.Write(sum, binary.LittleEndian, lev.Map)
	}
	return sum.Sum64()
}

func hierarchyCount(s *Server, result string) float64 {
	return counterSum(s, `symclusterd_hierarchy_total{result="`+result+`"}`)
}

// coarsenSpanHit finds the run's "multilevel.coarsen" span and reports
// its cache_hit attribute (false when the span does not carry one).
func coarsenSpanHit(t *testing.T, n *obs.SpanNode) bool {
	t.Helper()
	var find func(*obs.SpanNode) *obs.SpanNode
	find = func(n *obs.SpanNode) *obs.SpanNode {
		if n == nil || n.Name == "multilevel.coarsen" {
			return n
		}
		for _, c := range n.Children {
			if got := find(c); got != nil {
				return got
			}
		}
		return nil
	}
	sp := find(n)
	if sp == nil {
		t.Fatal("no multilevel.coarsen span under the request")
	}
	hit, _ := sp.Attrs["cache_hit"].(bool)
	return hit
}

func registerEdges(t *testing.T, url string, edges []byte) GraphInfo {
	t.Helper()
	resp, err := http.Post(url+"/v1/graphs", "text/plain", bytes.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	return decode[GraphInfo](t, resp)
}

func clusterOK(t *testing.T, url string, req ClusterRequest) ClusterResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/cluster", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster: status %d", resp.StatusCode)
	}
	return decode[ClusterResponse](t, resp)
}

// TestHierarchyKeptOnReuse follows one graph through the entry's
// hierarchy memo: the request that symmetrizes it keeps nothing, the
// first that reuses U builds a hierarchy and keeps it — charged to the
// entry at exactly its held bytes — the next is served from it, and
// evicting the entry gives all of it back. Under a budget the hierarchy
// cannot fit beside its graph it is declined, and the requests answer
// the same 200s all the same.
func TestHierarchyKeptOnReuse(t *testing.T) {
	ds, edges := servingWiki(t)
	u, aat := symmetrized(t, edges, "dd", 0.05), symmetrized(t, edges, "aat", 0)
	held := graclusHierarchy(t, nil, u, 1).HeldBytes()
	if GraphBytes(aat) <= 64 {
		t.Fatalf("the evicting graph is only %d bytes", GraphBytes(aat))
	}
	want, err := graclus.ClusterCtx(context.Background(), u.Adj, ds.Truth.K, graclus.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		budget int64
		keeps  bool
	}{
		{"fits", GraphBytes(u) + held + 64, true},
		{"oversized", GraphBytes(u) + held - 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 2, CacheBytes: tc.budget})
			info := registerEdges(t, ts.URL, edges)
			req := ClusterRequest{GraphID: info.ID, Method: "dd", Threshold: 0.05, Algorithm: "graclus", K: ds.Truth.K, Seed: 1}
			for i, step := range []struct {
				cacheHit, spanHit bool
				hits, built       float64
				bytes             int64
			}{
				{false, false, 0, 0, GraphBytes(u)},
				{true, false, 0, 1, GraphBytes(u) + held},
				{true, true, 1, 1, GraphBytes(u) + held},
			} {
				if !tc.keeps {
					step.spanHit, step.hits, step.built, step.bytes = false, 0, float64(i), GraphBytes(u)
				}
				res := clusterOK(t, ts.URL, req)
				if !slices.Equal(res.Assign, want.Assign) {
					t.Fatalf("request %d: assignment differs from the library's", i)
				}
				if res.CacheHit != step.cacheHit || coarsenSpanHit(t, res.Trace.Spans) != step.spanHit {
					t.Fatalf("request %d: cache_hit %v, coarsen span hit %v; want %v, %v",
						i, res.CacheHit, coarsenSpanHit(t, res.Trace.Spans), step.cacheHit, step.spanHit)
				}
				if h, b := hierarchyCount(s, "hit"), hierarchyCount(s, "built"); h != step.hits || b != step.built {
					t.Fatalf("request %d: hierarchy_total hit=%v built=%v, want %v, %v", i, h, b, step.hits, step.built)
				}
				if got := s.cache.Bytes(); got != step.bytes {
					t.Fatalf("request %d: cache holds %d bytes, want %d (U %d, hierarchy %d)", i, got, step.bytes, GraphBytes(u), held)
				}
			}
			if !tc.keeps {
				return
			}
			// Another graph needs the room: the entry goes, and its
			// hierarchy's charge with it.
			clusterOK(t, ts.URL, ClusterRequest{GraphID: info.ID, Method: "aat", Algorithm: "metis", K: ds.Truth.K, Seed: 1})
			if _, _, evictions := s.cache.Stats(); evictions != 1 || s.cache.Bytes() != GraphBytes(aat) {
				t.Fatalf("after eviction: %d evictions, %d bytes; want 1, %d", evictions, s.cache.Bytes(), GraphBytes(aat))
			}
		})
	}
}

// TestHierarchySyncAsyncProxiedAgree: on a two-node cluster the same
// request sent to the owner, through the other node, and as an async
// job lands on one entry's memo and returns one assignment.
func TestHierarchySyncAsyncProxiedAgree(t *testing.T) {
	ds, edges := servingWiki(t)
	nodes := newTestCluster(t, 2, nil)
	info := registerEdges(t, nodes[0].ts.URL, edges)
	owner := ownerIndex(t, nodes, info.ID)
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Threshold: 0.05, Algorithm: "graclus", K: ds.Truth.K, Seed: 1}

	first := clusterOK(t, nodes[owner].ts.URL, req) // symmetrizes
	for i, url := range []string{nodes[owner].ts.URL, nodes[1-owner].ts.URL} {
		if res := clusterOK(t, url, req); !slices.Equal(res.Assign, first.Assign) {
			t.Fatalf("sync request %d differs from the first", i)
		}
	}
	req.Async = true
	resp := postJSON(t, nodes[1-owner].ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)
	waitJobDone(t, nodes[1-owner].ts, ref)
	_, body := getURL(t, nodes[1-owner].ts.URL+ref.Location)
	var job JobInfo
	if err := json.Unmarshal(body, &job); err != nil || job.Result == nil || !slices.Equal(job.Result.Assign, first.Assign) {
		t.Fatalf("async result differs from the first (%v): %s", err, body)
	}
	s := nodes[owner].s
	if h, b := hierarchyCount(s, "hit"), hierarchyCount(s, "built"); h != 2 || b != 1 {
		t.Fatalf("owner's hierarchy_total hit=%v built=%v, want 2, 1", h, b)
	}
	if other := nodes[1-owner].s; hierarchyCount(other, "hit")+hierarchyCount(other, "built") != 0 {
		t.Fatal("the forwarding node coarsened something")
	}
}

// TestCacheObjectBytesCountsStoredGraphs: the size histogram observes a
// symmetrized graph only when the cache took it — not one larger than
// the budget, not one the cache.put fault dropped.
func TestCacheObjectBytesCountsStoredGraphs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
		fault  bool
		want   float64
	}{
		{"stored", 0, false, 1},
		{"1-byte budget", 1, false, 0},
		{"cache.put fault", 0, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: tc.budget})
			info := registerFigure1(t, ts)
			if tc.fault {
				defer faultinject.Reset()
				faultinject.Set("cache.put", faultinject.Fault{Mode: faultinject.Error})
			}
			clusterOK(t, ts.URL, ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1})
			if got := counterSum(s, "symclusterd_cache_object_bytes_count"); got != tc.want {
				t.Fatalf("%v graphs observed, want %v", got, tc.want)
			}
			if (s.cache.Len() == 1) != (tc.want == 1) {
				t.Fatalf("cache holds %d entries", s.cache.Len())
			}
		})
	}
}

// TestSharedHierarchyIsNeverWritten: goroutines cluster one memo'd U
// with Graclus and with Metis, over several k, while its entry is
// evicted under them and put back. The hierarchy they share hashes the
// same before and after, every result equals a nil-memo run's, and
// (under -race) nothing wrote it.
func TestSharedHierarchyIsNeverWritten(t *testing.T) {
	_, edges := servingWiki(t)
	u, filler := symmetrized(t, edges, "dd", 0.05), symmetrized(t, edges, "aat", 0)
	c := NewCache(GraphBytes(u) + graclusHierarchy(t, nil, u, 1).HeldBytes() + GraphBytes(filler)/2)
	c.Put(key(1), u)
	_, memo, _ := c.Get(key(1))
	ks := []int{8, 16, 64, 128}
	want, wantMetis := map[int][]int{}, map[int][]int{}
	for _, k := range ks {
		res, err := graclus.ClusterCtx(context.Background(), u.Adj, k, graclus.Options{Seed: 1, Hier: memo})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Assign
		part, err := metis.PartitionCtx(context.Background(), u.Adj, k, metis.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantMetis[k] = part.Assign
	}
	shared := graclusHierarchy(t, memo, u, 1)
	if c.Bytes() != GraphBytes(u)+shared.HeldBytes() {
		t.Fatalf("cache holds %d bytes, want U %d + hierarchy %d", c.Bytes(), GraphBytes(u), shared.HeldBytes())
	}
	before := hierarchySum(shared)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := ks[(w+i)%len(ks)]
				seed := int64(1 + (w+i)%2) // seed 2 rebuilds; once evicted, the memo keeps nothing
				if w%2 == 1 {
					res, err := metis.PartitionCtx(context.Background(), u.Adj, k, metis.Options{Seed: seed, Hier: memo})
					if err != nil {
						errs <- err
					} else if seed == 1 && !slices.Equal(res.Assign, wantMetis[k]) {
						errs <- fmt.Errorf("worker %d: metis k=%d differs while sharing", w, k)
					}
					continue
				}
				res, err := graclus.ClusterCtx(context.Background(), u.Adj, k, graclus.Options{Seed: seed, Hier: memo})
				if err != nil {
					errs <- err
				} else if seed == 1 && !slices.Equal(res.Assign, want[k]) {
					errs <- fmt.Errorf("worker %d: k=%d differs while sharing", w, k)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			c.Put(key(2), filler) // evicts entry 1 and its hierarchy
			c.Put(key(1), u)      // a new entry, a new memo
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := hierarchySum(shared); after != before {
		t.Fatalf("the shared hierarchy changed: %#x → %#x", before, after)
	}
	if got := c.Bytes(); got > c.budget {
		t.Fatalf("cache holds %d bytes of a %d budget", got, c.budget)
	}
	var total int64
	for _, el := range c.items {
		ent := el.Value.(*cacheEntry)
		total += ent.bytes + ent.held
	}
	if total != c.Bytes() {
		t.Fatalf("entries sum to %d bytes, the gauge reads %d", total, c.Bytes())
	}
}
