package matrix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Builder accumulates (row, col, value) triplets and assembles them into
// a CSR matrix. Duplicate coordinates are summed. It is the standard way
// to construct matrices from edge lists and generators.
//
// Triplets are held in chunks: when the open chunk (r, c, v) fills, it
// is sealed and one as large as everything held so far is opened, so
// storage doubles without a held triplet ever being copied.
type Builder struct {
	rows, cols int
	r, c       []int32
	v          []float64
	sealed     []tripletChunk // the full chunks before the open one, oldest first
	held       int            // triplets in sealed
}

type tripletChunk struct {
	r, c []int32
	v    []float64
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Reserve makes room for at least n triplets in all, so that a caller
// who knows the edge count adds without a further allocation. On an
// empty builder the room is one contiguous block — what lets Build hand
// row-major triplets over as the result's own arrays.
func (b *Builder) Reserve(n int) {
	if room := n - b.held; cap(b.r) < room {
		b.open(room - len(b.r))
	}
}

// open seals the open chunk, if it holds anything, and opens one with
// room for n triplets.
func (b *Builder) open(n int) {
	if len(b.r) > 0 {
		b.sealed = append(b.sealed, tripletChunk{b.r, b.c, b.v})
		b.held += len(b.r)
	}
	b.r, b.c, b.v = make([]int32, 0, n), make([]int32, 0, n), make([]float64, 0, n)
}

// chunk returns the k-th chunk in arrival order: the sealed ones, then
// the open one.
func (b *Builder) chunk(k int) tripletChunk {
	if k < len(b.sealed) {
		return b.sealed[k]
	}
	return tripletChunk{b.r, b.c, b.v}
}

// Resize sets the shape, for a caller that learns it while adding (an
// edge list's node count); the triplets already recorded must fit it.
func (b *Builder) Resize(rows, cols int) { b.rows, b.cols = rows, cols }

// Add records the triplet (i, j, val). Panics on out-of-range indices:
// silently clipping would corrupt downstream experiments.
func (b *Builder) Add(i, j int, val float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("matrix: Builder.Add index (%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	if len(b.r) == cap(b.r) {
		b.open(max(b.Len(), 64))
	}
	b.r = append(b.r, int32(i))
	b.c = append(b.c, int32(j))
	b.v = append(b.v, val)
}

// Len returns the number of recorded triplets (before deduplication).
func (b *Builder) Len() int { return b.held + len(b.r) }

// Build assembles the triplets into CSR form, summing duplicates and
// dropping entries that sum to exactly zero. The Builder is drained and
// may be reused afterwards.
func (b *Builder) Build() *CSR {
	total := b.Len()
	if total == 0 {
		return Zero(b.rows, b.cols)
	}
	// Counting sort by row, then sort each row's slice by column. This is
	// O(nnz + rows + Σ r log r) and avoids sorting the full triplet list.
	counts := make([]int64, b.rows+1)
	rowMajor, prev := true, int32(0)
	for k := 0; k <= len(b.sealed); k++ {
		for _, i := range b.chunk(k).r {
			counts[i+1]++
			rowMajor = rowMajor && prev <= i
			prev = i
		}
	}
	for i := 0; i < b.rows; i++ {
		counts[i+1] += counts[i]
	}
	// The stable scatter is the identity on triplets that arrived
	// row-major: held in one chunk, the builder's own arrays become the
	// result.
	cs, vs := b.c, b.v
	if rowMajor && len(b.sealed) == 0 {
		b.r, b.c, b.v = nil, nil, nil
	} else {
		cs, vs = make([]int32, total), make([]float64, total)
		next := make([]int64, b.rows)
		copy(next, counts[:b.rows])
		for k := 0; k <= len(b.sealed); k++ {
			ch := b.chunk(k)
			for t, i := range ch.r {
				p := next[i]
				cs[p] = ch.c[t]
				vs[p] = ch.v[t]
				next[i]++
			}
		}
		b.r, b.c, b.v = b.r[:0], b.c[:0], b.v[:0]
		b.sealed, b.held = nil, 0
	}
	nnz := FoldRows(b.rows, counts, cs, vs, &RowSorter{})
	return &CSR{Rows: b.rows, Cols: b.cols, RowPtr: counts, ColIdx: cs[:nnz:nnz], Val: vs[:nnz:nnz]}
}

// FoldRows folds entries grouped by row — row i is colIdx and val over
// [rowPtr[i], rowPtr[i+1]) — in any column order: each row is sorted by
// column (unless it already ascends strictly, the one order distinct
// keys have), equal columns are summed left to right as sort.Sort leaves
// them, and exact zeros are dropped. It is Build's fold, the one
// definition of a built matrix's rounding (DESIGN.md §15), done in place:
// it returns the folded entry count nnz, and rowPtr, colIdx[:nnz] and
// val[:nnz] are the folded matrix's, whose header the caller sets. s is
// the caller's sorter for a fold on its own goroutine, so a warm
// caller's fold allocates nothing.
//
// Rows fold in ranges of at least maxTileRows, one per GOMAXPROCS worker,
// each in place from its own start, then closed up: every row gets the
// same sort and fold whatever the count. A worker's panic is re-raised.
func FoldRows(rows int, rowPtr []int64, colIdx []int32, val []float64, s *RowSorter) int {
	if parts := max(1, min(runtime.GOMAXPROCS(0), rows/maxTileRows)); parts == 1 {
		foldRange(rowPtr, colIdx, val, 0, rows, 0, s)
	} else {
		first := func(p int) int { return p * rows / parts }
		starts := make([]int64, parts)
		var wg sync.WaitGroup
		var panicked atomic.Pointer[any]
		for p := parts - 1; p >= 0; p-- { // range p-1 rewrites p's start: read it first
			starts[p] = rowPtr[first(p)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						panicked.CompareAndSwap(nil, &v)
					}
				}()
				foldRange(rowPtr, colIdx, val, first(p), first(p+1), starts[p], &RowSorter{})
			}()
		}
		wg.Wait()
		if v := panicked.Load(); v != nil {
			panic(*v)
		}
		for p := 1; p < parts; p++ { // range p moves down to where p-1 ends
			w, end := rowPtr[first(p)], rowPtr[first(p+1)]
			copy(colIdx[w:], colIdx[starts[p]:end])
			copy(val[w:], val[starts[p]:end])
			for i := first(p) + 1; i <= first(p+1); i++ {
				rowPtr[i] -= starts[p] - w
			}
		}
	}
	return int(rowPtr[rows])
}

// foldRange folds rows [from, to), whose entries start at lo, in place
// from lo with row: rowPtr[i+1] becomes where row i's folded entries end.
func foldRange(rowPtr []int64, colIdx []int32, val []float64, from, to int, lo int64, row *RowSorter) {
	w := lo
	for i := from; i < to; i++ {
		hi := rowPtr[i+1]
		if !strictlyAscending(colIdx[lo:hi]) {
			row.cols, row.vals = colIdx[lo:hi], val[lo:hi]
			sort.Sort(row)
		}
		for k := lo; k < hi; {
			c, v := colIdx[k], val[k]
			for k++; k < hi && colIdx[k] == c; k++ {
				v += val[k]
			}
			if v != 0 {
				colIdx[w], val[w] = c, v
				w++
			}
		}
		rowPtr[i+1], lo = w, hi
	}
}

func strictlyAscending(cols []int32) bool {
	for k := 1; k < len(cols); k++ {
		if cols[k-1] >= cols[k] {
			return false
		}
	}
	return true
}

// RowSorter is FoldRows' sort.Interface over one row, by column. A
// caller that folds repeatedly keeps one: passed by pointer it is boxed
// without an allocation, which a fresh one per fold is not.
type RowSorter struct {
	cols []int32
	vals []float64
}

func (s *RowSorter) Len() int           { return len(s.cols) }
func (s *RowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *RowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// FromDense builds a CSR matrix from a dense row-major matrix, storing
// only the non-zero entries. Intended for tests and tiny examples.
func FromDense(d [][]float64) *CSR {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	b := NewBuilder(rows, cols)
	for i, row := range d {
		if len(row) != cols {
			panic("matrix: FromDense ragged input")
		}
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// ToDense expands the matrix to a dense row-major [][]float64. Intended
// for tests and tiny examples only.
func (m *CSR) ToDense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		cols, vals := m.Row(i)
		for k, c := range cols {
			d[i][c] = vals[k]
		}
	}
	return d
}
