package matrix

import (
	"context"
	"fmt"
	"math"
	"sort"

	"symcluster/internal/obs"
)

// MulPrunedCtx is the reference sparse product the tests hold the
// engine (engine.go) to: a·b, dropping every result entry whose
// absolute value is strictly below threshold, as one plain sequential
// Gustavson loop that shares no code with the engine — its own scatter
// array, its own sort, its own prune tally. It exists to be obviously
// right, not fast: production code uses MulXXTScaledPrunedCtx and
// MulPrunedTopKCtx, and `make lint` rejects a call to this function
// from any non-test file outside this package.
//
// Products accumulate in Gustavson order (a's row left to right, each
// matching row of b left to right) from a zero start, which is the
// order the engine's scatters reproduce — so engine results are
// required to match this function bit for bit, including the number of
// threshold kills reported through obs.PruneStats. ctx is polled every
// 512 rows.
func MulPrunedCtx(ctx context.Context, a, b *CSR, threshold float64) (*CSR, error) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1)}
	sum := make([]float64, b.Cols)
	seen := make([]bool, b.Cols)
	var touched []int
	var killed int64
	for i := 0; i < a.Rows; i++ {
		if i%512 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ac, av := a.Row(i)
		for k, c := range ac {
			bc, bv := b.Row(int(c))
			for t, j := range bc {
				if !seen[j] {
					seen[j] = true
					touched = append(touched, int(j))
				}
				sum[j] += float64(av[k] * bv[t]) // rounded, then added: see accumulator.axpy
			}
		}
		sort.Ints(touched)
		for _, j := range touched {
			v := sum[j]
			sum[j], seen[j] = 0, false
			switch {
			case v == 0:
			case math.Abs(v) >= threshold:
				out.ColIdx = append(out.ColIdx, int32(j))
				out.Val = append(out.Val, v)
			default:
				killed++
			}
		}
		touched = touched[:0]
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	obs.PruneStatsFrom(ctx).Add(killed)
	return out, nil
}
