package matrix

import (
	"context"
	"fmt"
	"runtime"
)

// Add returns alpha·a + beta·b. The operands must have identical
// dimensions. Entries that cancel to exactly zero are dropped.
func Add(a, b *CSR, alpha, beta float64) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Add dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	most := a.NNZ() + b.NNZ()
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1),
		ColIdx: make([]int32, 0, most), Val: make([]float64, 0, most)}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		out.ColIdx, out.Val = addRow(out.ColIdx, out.Val, ac, av, bc, bv, alpha, beta, -1)
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// addRow appends the row alpha·a + beta·b of two column-sorted rows to
// cols and vals: Add's merge, which the engine's running sum shares. The
// a-side term comes first, an exact zero is dropped, and so is column
// skip (-1 skips none).
func addRow(cols []int32, vals []float64, ac []int32, av []float64, bc []int32, bv []float64, alpha, beta float64, skip int32) ([]int32, []float64) {
	p, q := 0, 0
	for p < len(ac) || q < len(bc) {
		var col int32
		var val float64
		switch {
		case q >= len(bc) || (p < len(ac) && ac[p] < bc[q]):
			col, val = ac[p], alpha*av[p]
			p++
		case p >= len(ac) || bc[q] < ac[p]:
			col, val = bc[q], beta*bv[q]
			q++
		default:
			col, val = ac[p], alpha*av[p]+beta*bv[q]
			p++
			q++
		}
		if val != 0 && col != skip {
			cols = append(cols, col)
			vals = append(vals, val)
		}
	}
	return cols, vals
}

// MulPrunedTopKCtx returns a·b keeping, per output row, only entries
// with absolute value ≥ threshold and at most the topK largest of those
// (ties resolved toward lower column ids). topK ≤ 0 means unlimited.
// This is the workhorse of flow-based clustering, where each column of
// the flow matrix only ever keeps its heaviest entries: selecting
// during the product avoids materialising and sorting the long tail.
//
// The product is Gustavson's row-wise SpGEMM with a dense scatter
// accumulator, costing O(flops) time and O(cols) workspace, run
// sequentially on the engine (engine.go): ctx is polled once per row
// tile, and a cancelled context abandons the product and returns ctx's
// error. The one-shot form; iterated expansions go through an Expander.
func MulPrunedTopKCtx(ctx context.Context, a, b *CSR, threshold float64, topK int) (*CSR, error) {
	return topKProduct(a, b, threshold, topK).run(ctx, 1)
}

// Expander runs the top-k product over and over for one solve — the
// R-MCL expansion — on the engine's tile driver, keeping everything a
// product allocates besides its result (one accumulator per worker, the
// per-tile staging) from one call to the next. The worker count is
// derived, not configured: GOMAXPROCS capped at the tiles the rows cut
// into, so a flow smaller than one tile runs inline on the caller's
// goroutine. Every count produces the same bits. An Expander is not
// safe for concurrent use.
type Expander struct {
	procs int // GOMAXPROCS when the solve began: the workers offered
	ws    workspace
	// tau is each row's top-k cut in the last product and the next one's
	// pre-filter (product.tau); a stale one costs a rescan, nothing else.
	tau []float64
}

// DerivedWorkers reports how many goroutines the engine runs a product
// of the given output rows on when the count is left to it (an Expander,
// SumXXTScaledPrunedUpperCtx): GOMAXPROCS capped at the tiles.
func DerivedWorkers(rows int) int {
	_, _, running := tiling(rows, runtime.GOMAXPROCS(0))
	return running
}

// NewExpander returns an Expander with nothing allocated yet.
func NewExpander() *Expander {
	return &Expander{procs: runtime.GOMAXPROCS(0)}
}

// Workers reports how many goroutines a product of the given output
// rows runs on.
func (e *Expander) Workers(rows int) int {
	_, _, running := tiling(rows, e.procs)
	return running
}

// MulTopK overwrites dst with a·b keeping the topK largest entries of
// each row (MulPrunedTopKCtx at threshold 0), reusing dst's arrays, and
// then hands each finished row — columns ascending — to epilogue on the
// worker that produced it: epilogue rewrites the row in place and
// returns how many leading entries survive. It returns the number of
// entries epilogue trimmed. dst must not alias a or b; on error (ctx's,
// polled once per tile claim) dst's contents are undefined.
func (e *Expander) MulTopK(ctx context.Context, dst, a, b *CSR, topK int, epilogue func(cols []int32, vals []float64) int) (trimmed int, err error) {
	p := topKProduct(a, b, 0, topK)
	p.rowEpilogue = epilogue
	if len(e.tau) != a.Rows {
		e.tau = make([]float64, a.Rows)
	}
	p.tau = e.tau
	n, err := p.runInto(ctx, e.procs, &e.ws, dst)
	return int(n), err
}

// topKProduct is the engine spec behind MulPrunedTopKCtx and Expander:
// a plain Gustavson row scatter under a threshold-then-top-k flush.
func topKProduct(a, b *CSR, threshold float64, topK int) *product {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return &product{
		rows:      a.Rows,
		cols:      b.Cols,
		threshold: threshold,
		topK:      topK,
		bound:     func(i int) int { return rowFlops(a, b, i) },
		scatter: func(i int, spa *accumulator) {
			ac, av := a.Row(i)
			for k, c := range ac {
				bcols, bvals := b.Row(int(c))
				spa.axpy(av[k], bcols, bvals)
			}
		},
	}
}
