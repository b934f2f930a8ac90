package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKthLargestMatchesSort: the selection returns what a full sort
// would put k-th from the top and leaves the k largest in front, on
// vectors thick with duplicates and at both ends of k.
func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 300; trial++ {
		keys := make([]float64, 1+rng.Intn(60))
		for j := range keys {
			keys[j] = float64(rng.Intn(1 + trial%12))
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		for _, k := range []int{1, 1 + rng.Intn(len(keys)), len(keys)} {
			work := slices.Clone(keys)
			got, want := KthLargest(work, k), sorted[len(keys)-k]
			if got != want || slices.Min(work[:k]) != want || k < len(keys) && slices.Max(work[k:]) > want {
				t.Fatalf("trial %d: KthLargest(%v, %d) = %v leaving %v, want %v", trial, keys, k, got, work, want)
			}
		}
	}
}

func TestMulPrunedTopKMatchesSortedTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(15)
		a := randomCSR(rng, n, n, 0.4, 0, 3)
		b := randomCSR(rng, n, n, 0.4, 0, 3)
		k := 1 + rng.Intn(5)
		got := mulTopK(a, b, 0, k)
		mustValidate(t, got)
		full := mul(a, b)
		for i := 0; i < n; i++ {
			// Reference: take row i of the full product, keep the k
			// largest by |value| (ties toward lower columns).
			cols, vals := full.Row(i)
			type ent struct {
				c int32
				v float64
			}
			ref := make([]ent, len(cols))
			for t2 := range cols {
				ref[t2] = ent{cols[t2], vals[t2]}
			}
			for x := 0; x < len(ref); x++ {
				for y := x + 1; y < len(ref); y++ {
					ax, ay := math.Abs(ref[x].v), math.Abs(ref[y].v)
					if ay > ax || (ay == ax && ref[y].c < ref[x].c) {
						ref[x], ref[y] = ref[y], ref[x]
					}
				}
			}
			keep := ref
			if len(keep) > k {
				keep = keep[:k]
			}
			want := map[int32]float64{}
			for _, e := range keep {
				want[e.c] = e.v
			}
			gcols, gvals := got.Row(i)
			if len(gcols) != len(want) {
				t.Fatalf("trial %d row %d: kept %d entries, want %d", trial, i, len(gcols), len(want))
			}
			for t2, c := range gcols {
				wv, ok := want[c]
				if !ok || math.Abs(gvals[t2]-wv) > 1e-9 {
					t.Fatalf("trial %d row %d: column %d value %v not in reference set", trial, i, c, gvals[t2])
				}
			}
		}
	}
}

func TestMulPrunedTopKUnlimited(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := randomCSR(rng, 10, 10, 0.4, -2, 2)
	if !Equal(mulTopK(a, a, 0, 0), mul(a, a), 1e-12) {
		t.Fatal("topK<=0 should match unpruned product")
	}
}

func TestMulPrunedTopKWithThreshold(t *testing.T) {
	a := FromDense([][]float64{
		{1, 0.1, 0.01},
	})
	b := Identity(3)
	got := mulTopK(a, b, 0.05, 10)
	if got.NNZ() != 2 {
		t.Fatalf("threshold not applied: %v", got.ToDense())
	}
	got2 := mulTopK(a, b, 0.05, 1)
	if got2.NNZ() != 1 || got2.At(0, 0) != 1 {
		t.Fatalf("topK not applied after threshold: %v", got2.ToDense())
	}
}

func TestMulPrunedTopKPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mulTopK(Zero(2, 3), Zero(2, 3), 0, 1)
}
