package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestFoldRowsWorkersAgree: FoldRows folds the same structure and the
// same bits at every GOMAXPROCS — one range, and two, three and eight
// row ranges folded side by side and closed up — as on one. The rows
// hold up to 12 entries (the sort's insertion cutoff) or more, keys
// repeated one to five times over weights whose sum depends on the
// order they meet in, keys whose entries cancel to an exact zero, rows
// that fold to nothing and empty rows, and every split of every count
// falls between two rows of the kinds taken in turn.
func TestFoldRowsWorkersAgree(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	const n = 4100
	procs := []int{1, 2, 3, 8}
	atSplit := map[int]bool{}
	for _, p := range procs {
		parts := min(p, n/maxTileRows)
		for s := 1; s < parts; s++ {
			atSplit[s*n/parts-1], atSplit[s*n/parts] = true, true
		}
	}
	rng := rand.New(rand.NewSource(41))
	weights := []float64{0.1, 0.2, 0.3, 1.0 / 3, 1e16, -1e16, -0.1, 1}
	rowPtr, cols, vals := []int64{0}, []int32{}, []float64{}
	var empty, short, long, cancelled, turn int
	for i := range n {
		kind := rng.Intn(4)
		if atSplit[i] {
			kind, turn = turn%4, turn+1
		}
		lo := len(cols)
		switch kind {
		case 0: // empty
			empty++
		case 1, 2: // distinct keys, each repeated one to five times
			keys := 1 + rng.Intn(3)
			if kind == 2 {
				keys = 4 + rng.Intn(12)
			}
			for range keys {
				c := int32(rng.Intn(n))
				for range 1 + rng.Intn(5) {
					cols, vals = append(cols, c), append(vals, weights[rng.Intn(len(weights))])
				}
			}
		case 3: // every key cancels: the row folds to nothing
			for range 1 + rng.Intn(8) {
				c, w := int32(rng.Intn(n)), weights[rng.Intn(len(weights))]
				cols, vals = append(cols, c, c), append(vals, w, -w)
			}
			cancelled++
		}
		row := len(cols) - lo
		rng.Shuffle(row, func(a, b int) {
			cols[lo+a], cols[lo+b] = cols[lo+b], cols[lo+a]
			vals[lo+a], vals[lo+b] = vals[lo+b], vals[lo+a]
		})
		short += b2i(kind != 0 && row <= 12)
		long += b2i(row > 12)
		rowPtr = append(rowPtr, int64(len(cols)))
	}
	if empty == 0 || short == 0 || long == 0 || cancelled == 0 {
		t.Fatalf("rows: %d empty, %d of at most 12 entries, %d longer, %d cancelled: want each", empty, short, long, cancelled)
	}
	fold := func(p int) *CSR {
		runtime.GOMAXPROCS(p)
		return FoldRows(n, n, slices.Clone(rowPtr), slices.Clone(cols), slices.Clone(vals))
	}
	want := fold(1)
	for _, p := range procs[1:] {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			got := fold(p)
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
				t.Fatal("structure differs from the sequential fold")
			}
			for k := range want.Val {
				if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("Val[%d] = %v, want %v", k, got.Val[k], want.Val[k])
				}
			}
		})
	}
}
