package matrix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"unsafe"

	"symcluster/internal/leakcheck"
)

// truncateTopK keeps, per row of m, the k entries largest by |value|
// (ties toward lower columns) by fully sorting each row — the slow,
// obvious counterpart of the engine's selection. k <= 0 keeps all.
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
// engine's driver across worker counts, prune rules and row counts —
// one row past the smallest tile, a flow-sized product whose tile height
// moves with the worker count, and either side of two full-height
// tiles — and holds every run bit-identical to the oracle (top-k:
// oracle then sorted truncation) with the same threshold-kill tally.
func TestEngineMatchesOracle(t *testing.T) {
	for _, rows := range []int{minTileRows + 1, 540, 2*maxTileRows - 57, 3*maxTileRows + 57} {
		rng := rand.New(rand.NewSource(int64(rows)))
		x := benchGraph(rows, 6)
		xt := x.Transpose()
		rs := randomScale(rng, x.Rows)
		cs := randomScale(rng, x.Cols)
		xs := x.ScaleRows(rs).ScaleCols(cs)
		xst := xs.Transpose()
		for _, th := range []float64{0, 0.2} {
			want, wantKilled, err := MulPrunedCtx(context.Background(), xs, xst, th)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("rows=%d/th=%v/workers=%d", rows, th, workers)
				t.Run(name+"/xxt", func(t *testing.T) {
					got, tally, err := xxtProduct(x, xt, rs, cs, th).run(context.Background(), workers)
					if err != nil {
						t.Fatal(err)
					}
					requireBitIdentical(t, want, got)
					if tally.Killed != wantKilled {
						t.Fatalf("killed %d, want %d", tally.Killed, wantKilled)
					}
				})
				for _, k := range []int{0, 7} {
					t.Run(fmt.Sprintf("%s/topk=%d", name, k), func(t *testing.T) {
						got, tally, err := topKProduct(xs, xst, th, k).run(context.Background(), workers)
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, truncateTopK(want, k), got)
						// Top-k drops are selection, not threshold kills.
						if tally.Killed != wantKilled {
							t.Fatalf("killed %d, want %d", tally.Killed, wantKilled)
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
// each poll that saw a live context licenses exactly one tile of the
// height derived for this product and worker count, and each worker
// polls at most once more before returning ctx's error.
func TestEngineCancellation(t *testing.T) {
	for _, rows := range []int{540, 6 * maxTileRows} {
		testEngineCancellation(t, benchGraph(rows, 6))
	}
}

func testEngineCancellation(t *testing.T, x *CSR) {
	xt := x.Transpose()
	for _, workers := range []int{1, 4} {
		height, _, _ := tiling(x.Rows, workers)
		for _, spec := range []struct {
			name string
			p    *product
		}{
			{"xxt", xxtProduct(x, xt, nil, nil, 0)},
			{"topk", topKProduct(x, xt, 0, 5)},
		} {
			for _, after := range []int64{0, 2} {
				t.Run(fmt.Sprintf("rows=%d/%s/workers=%d/after=%d", x.Rows, spec.name, workers, after), func(t *testing.T) {
					p := *spec.p
					var scattered atomic.Int64
					p.scatter = func(i int, spa *accumulator) {
						scattered.Add(1)
						spec.p.scatter(i, spa)
					}
					ctx := &countingErrCtx{Context: context.Background(), after: after}
					out, _, err := p.run(ctx, workers)
					if !errors.Is(err, context.Canceled) || out != nil {
						t.Fatalf("out=%v err=%v, want nil/context.Canceled", out, err)
					}
					if n := scattered.Load(); n > after*int64(height) {
						t.Fatalf("scattered %d rows, want at most %d tiles of %d", n, after, height)
					}
					if polls := ctx.polls.Load(); polls > after+int64(workers) {
						t.Fatalf("%d polls, want at most %d", polls, after+int64(workers))
					}
				})
			}
		}
	}
}

// TestGroupedCancellation is TestEngineCancellation's bound for the
// grouped driver, which scatters no single row: each poll that saw a
// live context licenses one batch of row groups, at most a tile's rows,
// counted as their epilogues run.
func TestGroupedCancellation(t *testing.T) {
	for _, rows := range []int{540, 6 * maxTileRows} {
		x := benchGraph(rows, 6)
		xt := x.Transpose()
		for _, workers := range []int{1, 4} {
			height, _, _ := tiling(x.Rows, workers)
			for _, after := range []int64{0, 2} {
				t.Run(fmt.Sprintf("rows=%d/workers=%d/after=%d", rows, workers, after), func(t *testing.T) {
					p := topKProduct(x, xt, 0, 5)
					var flushed atomic.Int64
					p.rowEpilogue = func(cols []int32, _ []float64) int {
						flushed.Add(1)
						return len(cols)
					}
					ctx := &countingErrCtx{Context: context.Background(), after: after}
					out, _, err := p.run(ctx, workers)
					if !errors.Is(err, context.Canceled) || out != nil {
						t.Fatalf("out=%v err=%v, want nil/context.Canceled", out, err)
					}
					if n := flushed.Load(); n > after*int64(height) {
						t.Fatalf("flushed %d rows, want at most %d batches of %d", n, after, height)
					}
					if polls := ctx.polls.Load(); polls > after+int64(workers) {
						t.Fatalf("%d polls, want at most %d", polls, after+int64(workers))
					}
				})
			}
		}
	}
}

// TestTiling pins the derivation: large products keep full-height tiles
// whatever the worker count, a flow-sized product is cut into several
// tiles per worker, and no product runs on more workers than it has
// tiles — less than one minimal tile runs inline.
func TestTiling(t *testing.T) {
	for _, tc := range []struct {
		rows, workers           int
		height, nTiles, running int
	}{
		{8192, 1, 512, 16, 1},
		{8192, 2, 512, 16, 2},
		{540, 1, 135, 4, 1},
		{540, 2, 68, 8, 2},
		{540, 64, 64, 9, 9},
		{65, 8, 64, 2, 2},
		{39, 8, 64, 1, 1},
		{0, 4, 64, 0, 1},
	} {
		h, n, w := tiling(tc.rows, tc.workers)
		if h != tc.height || n != tc.nTiles || w != tc.running {
			t.Errorf("tiling(%d, %d) = (%d, %d, %d), want (%d, %d, %d)",
				tc.rows, tc.workers, h, n, w, tc.height, tc.nTiles, tc.running)
		}
	}
}

// TestEngineRecycledBuffers: a workspace and a result reused across
// products of different sizes — larger, then smaller, then larger — give
// the bits of a fresh run every time, and the row epilogue sees each
// finished row once, with what it trims counted and gone.
func TestEngineRecycledBuffers(t *testing.T) {
	big, small := benchGraph(540, 8), benchGraph(90, 3)
	dropOdd := func(cols []int32, vals []float64) int {
		n := 0
		for k, c := range cols {
			if c%2 == 0 {
				cols[n], vals[n] = c, vals[k]/2
				n++
			}
		}
		return n
	}
	for _, workers := range []int{1, 3} {
		ws, out := &workspace{}, &CSR{}
		for round, m := range []*CSR{big, small, big, big} {
			mt := m.Transpose()
			fresh, _, err := topKProduct(m, mt, 0, 9).run(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			want := &CSR{Rows: fresh.Rows, Cols: fresh.Cols, RowPtr: make([]int64, fresh.Rows+1)}
			for i := 0; i < fresh.Rows; i++ {
				cols, vals := fresh.Row(i)
				cols, vals = slices.Clone(cols), slices.Clone(vals)
				n := dropOdd(cols, vals)
				want.ColIdx = append(want.ColIdx, cols[:n]...)
				want.Val = append(want.Val, vals[:n]...)
				want.RowPtr[i+1] = int64(len(want.ColIdx))
			}
			p := topKProduct(m, mt, 0, 9)
			p.rowEpilogue = dropOdd
			tally, err := p.runInto(context.Background(), workers, ws, out)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, want, out)
			if tally.Trimmed != int64(fresh.NNZ()-want.NNZ()) {
				t.Fatalf("workers=%d round %d: trimmed %d, want %d", workers, round, tally.Trimmed, fresh.NNZ()-want.NNZ())
			}
		}
	}
}

// TestEngineWorkerPanic: a panic in a product's scatter — a plain
// product's row epilogue, on the grouped driver — reaches the caller's
// goroutine — where the server pool's recover turns it into a job error
// — with its value, at one worker (inline) and at several (spawned), and
// every spawned worker has exited by then.
func TestEngineWorkerPanic(t *testing.T) {
	leakcheck.Guard(t)
	x := benchGraph(6*maxTileRows, 6)
	xt := x.Transpose()
	for _, workers := range []int{1, 4} {
		xxt := xxtProduct(x, xt, nil, nil, 0)
		scatter := xxt.scatter
		xxt.scatter = func(i int, spa *accumulator) {
			if i == 700 {
				panic("poisoned row")
			}
			scatter(i, spa)
		}
		topk := topKProduct(x, xt, 0, 5)
		var rows atomic.Int64
		topk.rowEpilogue = func(cols []int32, _ []float64) int {
			if rows.Add(1) == 700 {
				panic("poisoned row")
			}
			return len(cols)
		}
		for _, p := range []*product{xxt, topk} {
			func() {
				defer func() {
					if r := recover(); r != "poisoned row" {
						t.Errorf("workers=%d: recovered %v, want the scatter's panic", workers, r)
					}
				}()
				p.run(context.Background(), workers)
				t.Errorf("workers=%d: run returned", workers)
			}()
		}
	}
}

// TestAccumulatorPadding: on a 64-bit target an accumulator fills whole
// cache lines, so two workers' accumulators allocated back to back share
// none.
func TestAccumulatorPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pad is derived for 64-bit words")
	}
	if size := unsafe.Sizeof(accumulator{}); size%64 != 0 {
		t.Fatalf("accumulator is %d bytes, not a whole number of 64-byte lines", size)
	}
}

// TestAccumulatorGenerationWrap forces the generation counter to wrap
// and requires flushed rows to stay correct across the wrap — with dense
// rows, which neither stamp a mark nor advance the generation, between
// the marked ones: a dense row's sums must not read as touched to the
// marked row that follows it, before the wrap or after.
func TestAccumulatorGenerationWrap(t *testing.T) {
	spa := newAccumulator(4, 1)
	spa.gen = ^uint32(0) - 1
	p := &product{cols: 4}
	row := func(dense bool, col int32, v float64) {
		t.Helper()
		spa.force = -1
		if dense {
			spa.force = 1
		}
		spa.begin(0, 4, 1, 1)
		spa.axpy(1, []int32{col}, []float64{v})
		var sink rowSink
		if n := spa.flush(&sink, p, 0, spa.acc); n != 1 || sink.cols[0] != col || sink.vals[0] != v {
			t.Fatalf("dense=%v: flushed %v %v, want [%d] [%v]", dense, sink.cols, sink.vals, col, v)
		}
		spa.end()
	}
	row(true, 2, 4)  // dense: leaves acc[2] = 4 behind, marks untouched
	row(false, 2, 5) // marked, pre-wrap: must start column 2 from zero
	row(true, 1, 6)  // dense at the last generation
	row(false, 2, 7) // gen is now max; closing this row wraps
	if spa.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", spa.gen)
	}
	row(true, 3, 8)
	row(false, 1, 3) // post-wrap: column 1 holds a dense row's 6 and a cleared mark
	row(false, 3, 9)
	row(true, 2, 1)
}
