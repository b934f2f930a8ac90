package metis

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
)

// served is one symmetrization a request partitions, and into how many.
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

// partitionIn is PartitionCtx's run in ws.
func partitionIn(t *testing.T, ws *workspace, g served, opt Options) []int {
	t.Helper()
	assign := make([]int, g.adj.Rows)
	if err := ws.partition(context.Background(), g.adj, g.k, opt, assign); err != nil {
		t.Fatal(err)
	}
	ws.hier = nil
	ws.coarse.Release()
	return assign
}

// TestReusedWorkspaceMatchesFresh: one workspace partitions every served
// graph, largest first and then back up, and each answer is a fresh
// workspace's, so nothing a larger graph or an earlier sub-bisection
// left behind is read.
func TestReusedWorkspaceMatchesFresh(t *testing.T) {
	graphs := servedGraphs(t)
	up := slices.Clone(graphs)
	slices.Reverse(up)
	reused := newWorkspace()
	for pass, order := range [][]served{graphs, up} {
		for _, g := range order {
			opt := Options{Seed: int64(len(g.name))}
			if want, got := partitionIn(t, newWorkspace(), g, opt), partitionIn(t, reused, g, opt); !slices.Equal(got, want) {
				t.Fatalf("pass %d, %s (%d nodes): a reused workspace's assignment differs from a fresh one's", pass, g.name, g.adj.Rows)
			}
		}
	}
}

// levelBits is every array of every level of h, as bits.
func levelBits(h *multilevel.Hierarchy) []uint64 {
	var bits []uint64
	for _, lev := range h.Levels {
		for _, v := range slices.Concat(lev.Adj.Val, lev.NodeWeight) {
			bits = append(bits, math.Float64bits(v))
		}
		for _, p := range lev.Adj.RowPtr {
			bits = append(bits, uint64(p))
		}
		for _, c := range slices.Concat(lev.Adj.ColIdx, lev.Map) {
			bits = append(bits, uint64(c))
		}
		bits = append(bits, uint64(lev.Adj.Rows), math.MaxUint64) // a level's end
	}
	return bits
}

// TestMemoLevelsSurviveRecycledBisections: a memo's kept hierarchy — the
// first bisection's, which every later request reads — is bit for bit
// what it was after the partitions that recycled their sub-bisections'
// levels in the same workspace, and those partitions answer as a fresh
// workspace without the memo does.
func TestMemoLevelsSurviveRecycledBisections(t *testing.T) {
	graphs := servedGraphs(t)
	var g served
	for _, c := range graphs {
		if c.name == "wiki/"+core.DegreeDiscounted.String() {
			g = c
		}
	}
	memo := multilevel.NewMemo(g.adj, nil)
	ws := newWorkspace()
	want := partitionIn(t, newWorkspace(), g, Options{Seed: 1})
	if got := partitionIn(t, ws, g, Options{Seed: 1, Hier: memo}); !slices.Equal(got, want) {
		t.Fatal("the partition that built the memo's hierarchy differs from one without a memo")
	}
	kept, err := memo.Coarsen(context.Background(), g.adj, multilevel.Options{MinNodes: coarsenTo, Seed: newRand(1).Int63()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := levelBits(kept)
	if kept.Depth() < 2 {
		t.Fatalf("kept hierarchy has %d levels, want a coarse one to guard", kept.Depth())
	}
	for round := 0; round < 3; round++ {
		if got := partitionIn(t, ws, g, Options{Seed: 1, Hier: memo}); !slices.Equal(got, want) {
			t.Fatalf("round %d: a partition served from the memo differs from one without it", round)
		}
		partitionIn(t, ws, graphs[len(graphs)-1-round], Options{Seed: 2})
	}
	if !slices.Equal(levelBits(kept), before) {
		t.Fatal("the memo's kept levels changed under partitions that recycled their sub-bisections' levels")
	}
}

// TestConcurrentCallsMatchAlone: calls on four goroutines at once, each
// taking and giving back workspaces from the one free list, answer as
// the same calls made one at a time.
func TestConcurrentCallsMatchAlone(t *testing.T) {
	graphs := servedGraphs(t)[:8]
	want := make([][]int, len(graphs))
	for i, g := range graphs {
		res, err := PartitionCtx(context.Background(), g.adj, g.k, Options{Seed: int64(i)})
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
				res, err := PartitionCtx(context.Background(), g.adj, g.k, Options{Seed: int64(i)})
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

// TestWarmPartitionAllocations: a served Metis request whose first
// bisection the memo answers allocates its answer and a handful of small
// objects (6 measured; the bound leaves 4 to spare) — no buffer, and
// nothing per coarse level, since a fold writes the level's header in
// place and sorts with the Scratch's sorter — once a workspace waits in
// the free list.
func TestWarmPartitionAllocations(t *testing.T) {
	adj, k := serveDD(t)
	memo := multilevel.NewMemo(adj, nil)
	run := func() {
		if _, err := PartitionCtx(context.Background(), adj, k, Options{Seed: 1, Hier: memo}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs, answer := testing.AllocsPerRun(10, run), uint64(8*adj.Rows)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / 10
	t.Logf("%v allocations, %d bytes per warm request; answer %d bytes", allocs, per, answer)
	if allocs > 10 || per > answer+6<<10 {
		t.Fatalf("%v allocations and %d bytes per warm request, want at most 10 and its %d-byte answer + 6 KiB", allocs, per, answer)
	}
}
