package matrix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"symcluster/internal/obs"
)

// truncateTopK keeps, per row of m, the k entries largest by |value|
// (ties toward lower columns) by fully sorting each row — the slow,
// obvious counterpart of the engine's quickselect. k <= 0 keeps all.
func truncateTopK(m *CSR, k int) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		idx := make([]int, len(cols))
		for p := range idx {
			idx[p] = p
		}
		if k > 0 && len(idx) > k {
			sort.Slice(idx, func(x, y int) bool {
				vx, vy := math.Abs(vals[idx[x]]), math.Abs(vals[idx[y]])
				if vx != vy {
					return vx > vy
				}
				return cols[idx[x]] < cols[idx[y]]
			})
			idx = idx[:k]
			sort.Ints(idx)
		}
		for _, p := range idx {
			out.ColIdx = append(out.ColIdx, cols[p])
			out.Val = append(out.Val, vals[p])
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// TestEngineMatchesOracle drives both production specs through the
// engine's driver across worker counts, prune rules and row counts on
// either side of the two-tile mark, and holds every run bit-identical
// to the oracle (top-k: oracle then sorted truncation) with the same
// threshold-kill tally.
func TestEngineMatchesOracle(t *testing.T) {
	for _, rows := range []int{2*tileRows - 57, 3*tileRows + 57} {
		rng := rand.New(rand.NewSource(int64(rows)))
		x := benchGraph(rows, 6)
		xt := x.Transpose()
		rs := randomScale(rng, x.Rows)
		cs := randomScale(rng, x.Cols)
		xs := x.ScaleRows(rs).ScaleCols(cs)
		xst := xs.Transpose()
		for _, th := range []float64{0, 0.2} {
			oracleCtx, wantKilled := obs.WithPruneStats(context.Background())
			want, err := MulPrunedCtx(oracleCtx, xs, xst, th)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("rows=%d/th=%v/workers=%d", rows, th, workers)
				t.Run(name+"/xxt", func(t *testing.T) {
					ctx, killed := obs.WithPruneStats(context.Background())
					got, err := xxtProduct(x, xt, rs, cs, th).run(ctx, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, want, got)
					if killed.Killed() != wantKilled.Killed() {
						t.Fatalf("killed %d, want %d", killed.Killed(), wantKilled.Killed())
					}
				})
				for _, k := range []int{0, 7} {
					t.Run(fmt.Sprintf("%s/topk=%d", name, k), func(t *testing.T) {
						ctx, killed := obs.WithPruneStats(context.Background())
						got, err := topKProduct(xs, xst, th, k).run(ctx, workers)
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, truncateTopK(want, k), got)
						// Top-k drops are selection, not threshold kills.
						if killed.Killed() != wantKilled.Killed() {
							t.Fatalf("killed %d, want %d", killed.Killed(), wantKilled.Killed())
						}
					})
				}
			}
		}
	}
}

// countingErrCtx cancels after a fixed number of Err polls, pinning
// cancellation to a deterministic poll boundary.
type countingErrCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countingErrCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestEngineCancellation: an already-cancelled context scatters no row,
// and a context cancelled mid-run stops the driver within one tile —
// each poll that saw a live context licenses exactly one tile, and each
// worker polls at most once more before returning ctx's error.
func TestEngineCancellation(t *testing.T) {
	x := benchGraph(6*tileRows, 6)
	xt := x.Transpose()
	for _, workers := range []int{1, 4} {
		for _, spec := range []struct {
			name string
			p    *product
		}{
			{"xxt", xxtProduct(x, xt, nil, nil, 0)},
			{"topk", topKProduct(x, xt, 0, 5)},
		} {
			for _, after := range []int64{0, 2} {
				t.Run(fmt.Sprintf("%s/workers=%d/after=%d", spec.name, workers, after), func(t *testing.T) {
					p := *spec.p
					var scattered atomic.Int64
					p.scatter = func(i int, spa *accumulator) {
						scattered.Add(1)
						spec.p.scatter(i, spa)
					}
					ctx := &countingErrCtx{Context: context.Background(), after: after}
					out, err := p.run(ctx, workers)
					if !errors.Is(err, context.Canceled) || out != nil {
						t.Fatalf("out=%v err=%v, want nil/context.Canceled", out, err)
					}
					if n := scattered.Load(); n > after*tileRows {
						t.Fatalf("scattered %d rows, want at most %d tiles' worth", n, after)
					}
					if polls := ctx.polls.Load(); polls > after+int64(workers) {
						t.Fatalf("%d polls, want at most %d", polls, after+int64(workers))
					}
				})
			}
		}
	}
}

func TestAccumulatorGenerationWrap(t *testing.T) {
	// Force the generation counter to wrap and verify flushed rows stay
	// correct across the wrap.
	spa := newAccumulator(4)
	spa.gen = ^uint32(0) - 1
	flushed := func() (int32, float64) {
		t.Helper()
		var sink rowSink
		if n, _ := spa.flush(&sink, &product{}, 0); n != 1 {
			t.Fatalf("flushed %d entries, want 1", n)
		}
		return sink.cols[0], sink.vals[0]
	}
	spa.add(2, 5)
	if c, v := flushed(); c != 2 || v != 5 {
		t.Fatalf("pre-wrap flush = (%d, %v), want (2, 5)", c, v)
	}
	spa.add(2, 7) // gen is now max; this flush wraps
	if c, v := flushed(); c != 2 || v != 7 {
		t.Fatalf("wrap flush = (%d, %v), want (2, 7)", c, v)
	}
	if spa.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", spa.gen)
	}
	spa.add(1, 3)
	if c, v := flushed(); c != 1 || v != 3 {
		t.Fatalf("post-wrap flush = (%d, %v), want (1, 3): stale accumulation", c, v)
	}
}
