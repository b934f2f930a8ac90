package graclus

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
)

// served is one symmetrization a request clusters, and into how many.
type served struct {
	name string
	adj  *matrix.CSR
	k    int
}

// servedGraphs is the dd, aat, bib and rw symmetrization of two
// Wikipedia-like graphs of the benchmark's serving shape (the second
// smaller) and of a small R-MAT graph, largest first.
func servedGraphs(t testing.TB) []served {
	t.Helper()
	small, err := gen.Wiki(gen.WikiOptions{ListClusters: 5, RecipClusters: 5, ListMembersMin: 12, ListMembersMax: 20,
		RecipMembersMin: 15, RecipMembersMax: 28, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.Kronecker(gen.KroneckerOptions{Scale: 9, EdgeFactor: 8, Reciprocity: 0.62, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []served
	for _, d := range []struct {
		name string
		ds   *gen.Dataset
		k    int
	}{{"wiki", serveWiki(t), 16}, {"wiki-small", small, 10}, {"rmat", rmat, 12}} {
		for _, m := range []struct {
			method    core.Method
			threshold float64
		}{{core.DegreeDiscounted, 0.05}, {core.AAT, 0}, {core.Bibliometric, 2}, {core.RandomWalk, 0}} {
			opt := core.Defaults()
			opt.Threshold = m.threshold
			u, err := core.SymmetrizeCtx(context.Background(), d.ds.Graph, m.method, opt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, served{fmt.Sprintf("%s/%v", d.name, m.method), u.Adj, d.k})
		}
	}
	slices.SortStableFunc(out, func(a, b served) int { return b.adj.NNZ() - a.adj.NNZ() })
	return out
}

// TestReusedWorkspaceMatchesFresh: one workspace clusters every served
// graph, largest first and then back up, and each answer is a fresh
// workspace's, so nothing a larger graph left behind is read.
func TestReusedWorkspaceMatchesFresh(t *testing.T) {
	ctx := context.Background()
	graphs := servedGraphs(t)
	up := slices.Clone(graphs)
	slices.Reverse(up)
	reused := newWorkspace()
	for pass, order := range [][]served{graphs, up} {
		for _, g := range order {
			opt := Options{Seed: int64(len(g.name))}
			want, err := newWorkspace().cluster(ctx, g.adj, g.k, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.cluster(ctx, g.adj, g.k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("pass %d, %s (%d nodes): a reused workspace's assignment differs from a fresh one's", pass, g.name, g.adj.Rows)
			}
			reused.coarse.Release()
		}
	}
}

// TestConcurrentCallsMatchAlone: calls on four goroutines at once, each
// taking and giving back workspaces from the one free list, answer as
// the same calls made one at a time.
func TestConcurrentCallsMatchAlone(t *testing.T) {
	graphs := servedGraphs(t)[:8]
	want := make([][]int, len(graphs))
	for i, g := range graphs {
		res, err := ClusterCtx(context.Background(), g.adj, g.k, Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Assign
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < len(graphs); r++ {
				i := (w + r) % len(graphs)
				g := graphs[i]
				res, err := ClusterCtx(context.Background(), g.adj, g.k, Options{Seed: int64(i)})
				if err == nil && !slices.Equal(res.Assign, want[i]) {
					err = fmt.Errorf("%s: answer differs from the call made alone", g.name)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}

// TestWarmClusterAllocations: a served Graclus request whose hierarchy
// the memo keeps allocates its answer and a handful of small objects —
// no buffer — once a workspace waits in the free list.
func TestWarmClusterAllocations(t *testing.T) {
	ds := serveWiki(t)
	opt := core.Defaults()
	opt.Threshold = 0.05
	u, err := core.SymmetrizeCtx(context.Background(), ds.Graph, core.DegreeDiscounted, opt)
	if err != nil {
		t.Fatal(err)
	}
	memo := multilevel.NewMemo(u.Adj, nil)
	run := func() {
		if _, err := ClusterCtx(context.Background(), u.Adj, ds.Truth.K, Options{Seed: 1, Hier: memo}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs, per, answer := testing.AllocsPerRun(20, run), bytesPerRun(20, run), uint64(8*u.Adj.Rows)
	t.Logf("%v allocations, %d bytes per warm request; answer %d bytes", allocs, per, answer)
	if allocs > 8 {
		t.Fatalf("%v allocations per warm request, want at most 8", allocs)
	}
	if per > answer+1024 {
		t.Fatalf("%d bytes per warm request, want at most its %d-byte answer + 1 KiB", per, answer)
	}
}

// bytesPerRun is what each of n calls of f allocates, on average.
func bytesPerRun(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}
