package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"symcluster/internal/core"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
)

// heldDuring is the most heap f had in use at any one moment, over what
// was in use before it started: HeapAlloc sampled while f runs — again
// and again for a third of a second, so that a run of a few milliseconds
// is caught at its peak — with the collector held to 2 % of the live
// heap, so uncollected garbage inflates a sample by little more than
// the allocations of one collection cycle.
func heldDuring(t *testing.T, f func()) int64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(2))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, ms.HeapAlloc
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	for start := time.Now(); time.Since(start) < time.Second/3; {
		f()
		runtime.GC() // the finished run's result is not the next one's to hold
	}
	close(stop)
	wg.Wait()
	return int64(peak - base)
}

// benchRMAT is the 8 k-node R-MAT graph of the repository benchmark's
// sym_cold workload.
func benchRMAT(t *testing.T) *gen.Dataset {
	t.Helper()
	d, err := gen.Kronecker(gen.KroneckerOptions{Scale: 13, EdgeFactor: 12, Reciprocity: 0.62, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// benchWiki is one graph of the benchmark's serving family: Wikipedia-
// like, 8 list and 8 reciprocal clusters, ≈540 nodes.
func benchWiki(t *testing.T, seed int64) *gen.Dataset {
	t.Helper()
	d, err := gen.Wiki(gen.WikiOptions{
		ListClusters: 8, RecipClusters: 8,
		ListMembersMin: 20, ListMembersMax: 20,
		RecipMembersMin: 28, RecipMembersMax: 28,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestProductSymEstimateCoversHeldBytes puts the admission estimate of
// the degree-discounted symmetrization beside the heap a run really
// holds, on the benchmark's two graph shapes: the 8 k-node R-MAT of
// sym_cold pruned at 0.03 — where the flop bound the model rests on
// overshoots the pruned product by two orders of magnitude — and a
// 540-node Wikipedia-like graph left unpruned, where the flop bound is
// within one. The estimate must cover what is held — that is
// admission's promise — and stay inside the stated band above it, so a
// term dropped from the model and a new allocation in the run both
// show. Measured at GOMAXPROCS 1, 2, 3 and 8 on two cores: 232–349 and
// 1.3–2.5; a sample counts the garbage of the collection cycle in
// flight, a third of so small a heap as the last row's at eight workers
// on two cores, hence that row's floor. An out-of-core run has no
// estimate: its resident meter (TestOutOfCoreResidentBudget) is the
// guard.
func TestProductSymEstimateCoversHeldBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heap sampling is slow and noisy under -short")
	}
	rmat, wiki := benchRMAT(t), benchWiki(t, 1000)
	dd, _ := LookupSymmetrizer("dd")
	for _, tc := range []struct {
		name      string
		g         *graph.Directed
		threshold float64
		lo, hi    float64 // band for estimate ÷ held
	}{
		{"rmat8k@0.03/in-core", rmat.Graph, 0.03, 60, 1000},
		{"wiki540@0/in-core", wiki.Graph, 0, 0.8, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			est := dd.cost(StatsFor(tc.g))
			opt := core.Defaults()
			opt.Threshold = tc.threshold
			held := heldDuring(t, func() {
				if _, err := dd.Run(context.Background(), tc.g, opt); err != nil {
					t.Fatal(err)
				}
			})
			ratio := float64(est) / float64(held)
			t.Logf("estimate %d bytes, held %d, ratio %.2f (GOMAXPROCS %d)", est, held, ratio, runtime.GOMAXPROCS(0))
			if ratio < tc.lo || ratio > tc.hi {
				t.Fatalf("estimate ÷ held = %.2f, outside [%v, %v]", ratio, tc.lo, tc.hi)
			}
		})
	}
}

// TestJobEstimateCoversMultilevelHeld puts the admission estimate of a
// whole dd + Graclus and dd + Metis job — EstimateJobBytes, the
// symmetrizer's model plus multilevelBytes — beside the heap the job
// really holds, on the benchmark's two shapes at their thresholds. The
// estimate must cover what is held; by how much is logged, not gated
// (the product model's flop bound alone overshoots by the factors the
// test above records).
func TestJobEstimateCoversMultilevelHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("heap sampling is slow and noisy under -short")
	}
	rmat, wiki := benchRMAT(t), benchWiki(t, 1000)
	dd, _ := LookupSymmetrizer("dd")
	for _, tc := range []struct {
		name      string
		g         *graph.Directed
		threshold float64
		k         int
	}{
		{"rmat8k@0.03", rmat.Graph, 0.03, 64},
		{"wiki540@0.05", wiki.Graph, 0.05, wiki.Truth.K},
	} {
		for _, algo := range []string{"graclus", "metis"} {
			t.Run(tc.name+"/"+algo, func(t *testing.T) {
				cl, _ := LookupClusterer(algo)
				est := EstimateJobBytes(dd, cl, StatsFor(tc.g).WithK(tc.k))
				opt := core.Defaults()
				opt.Threshold = tc.threshold
				held := heldDuring(t, func() {
					run := &Run{Sym: dd, SymOpt: opt, Cl: cl, ClOpt: ClusterOptions{TargetClusters: tc.k, Seed: 1}}
					if _, _, err := run.Execute(context.Background(), tc.g, nil); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("estimate %d bytes, held %d, ratio %.2f", est, held, float64(est)/float64(held))
				if est < held {
					t.Fatalf("estimate %d bytes does not cover the %d held", est, held)
				}
			})
		}
	}
}
