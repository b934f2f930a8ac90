package matrix

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"unsafe"
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

// Expander runs the top-k product a·b over and over for one solve — the
// R-MCL expansion — on the engine's grouped driver (group.go), keeping
// everything a product allocates besides its result (one accumulator per
// worker, the row groups, the product spec itself) from one call to the
// next, and from one solve to the next when Reset hands it on. The
// worker count is derived, not configured: GOMAXPROCS at the solve's
// start, capped at the tiles the rows cut into, so a flow smaller than
// one tile runs inline on the caller's goroutine. Every count produces
// the same bits. An Expander is not safe for concurrent use.
type Expander struct {
	procs int // GOMAXPROCS when the solve began: the workers offered
	ws    workspace
	// tau is each row's top-k cut in the last product and the next one's
	// pre-filter (product.tau); a stale one costs a rescan, nothing else.
	tau []float64
	p   product // the spec, pointed at each MulTopK's operands
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
	e := &Expander{}
	e.Reset()
	return e
}

// Reset readies e for another solve and keeps every buffer it has grown:
// the workers offered are GOMAXPROCS again, and the next product takes
// no τ hint from the last one — the first product of a solve runs as it
// would on a new Expander.
func (e *Expander) Reset() {
	e.procs = runtime.GOMAXPROCS(0)
	e.tau = e.tau[:0]
}

// Workers reports how many goroutines a product of the given output
// rows runs on at most.
func (e *Expander) Workers(rows int) int {
	_, _, running := tiling(rows, e.procs)
	return running
}

// MulTopK overwrites dst with a·b keeping the topK largest entries of
// each row (ties toward lower columns; exact zeros and NaN dropped),
// reusing dst's arrays, and then hands each finished row — columns
// ascending — to epilogue on the worker that produced it: epilogue
// rewrites the row in place and returns how many leading entries
// survive. It returns the product's tally, the entries epilogue trimmed
// among its counts. dst must not share storage with a or b — rows are
// written to dst before others are read — and MulTopK panics if it
// does; on error (ctx's, polled once per batch claim) dst's contents are
// undefined.
func (e *Expander) MulTopK(ctx context.Context, dst, a, b *CSR, topK int, epilogue func(cols []int32, vals []float64) int) (Tally, error) {
	if sharesStorage(dst, a) || sharesStorage(dst, b) {
		panic("matrix: Expander.MulTopK: dst shares storage with an operand; the product is written over rows it has not read yet")
	}
	if len(e.tau) != a.Rows {
		// a new solve or another shape: no row has a hint yet
		e.tau = slices.Grow(e.tau[:0], a.Rows)[:a.Rows]
		clear(e.tau)
	}
	e.p = *topKProduct(a, b, 0, topK)
	e.p.rowEpilogue, e.p.tau = epilogue, e.tau
	defer e.idle()
	return e.p.runInto(ctx, e.procs, &e.ws, dst)
}

// idle drops the spec's references: an idle Expander holds no operand.
func (e *Expander) idle() { e.p = product{} }

// topKProduct is the engine spec behind Expander: the plain a·b under a
// threshold-then-top-k flush (topK ≤ 0 keeps every survivor), expanded
// in row groups.
func topKProduct(a, b *CSR, threshold float64, topK int) *product {
	checkMulShape(a, b)
	return &product{rows: a.Rows, cols: b.Cols, a: a, b: b, threshold: threshold, topK: topK}
}

// checkMulShape panics unless a·b is defined. (Kept out of topKProduct so
// that it inlines and the spec an Expander copies stays off the heap.)
func checkMulShape(a, b *CSR) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// sharesStorage reports whether x and y are one matrix or have an array
// in common, anywhere within the arrays' capacities.
func sharesStorage(x, y *CSR) bool {
	if x == y {
		return true
	}
	for _, u := range x.extents() {
		for _, v := range y.extents() {
			if u[0] < u[1] && v[0] < v[1] && u[0] < v[1] && v[0] < u[1] {
				return true
			}
		}
	}
	return false
}

// extents returns the address range each of m's arrays covers.
func (m *CSR) extents() [3][2]uintptr {
	return [3][2]uintptr{extent(m.RowPtr), extent(m.ColIdx), extent(m.Val)}
}

func extent[T any](s []T) [2]uintptr {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return [2]uintptr{lo, lo + uintptr(cap(s))*unsafe.Sizeof(*new(T))}
}
