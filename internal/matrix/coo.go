package matrix

import (
	"fmt"
	"sort"
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
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int64, b.rows+1)}
	total := b.Len()
	if total == 0 {
		return m
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

	// Sort each row by column, then sum duplicates and drop the exact
	// zeros cancellation leaves, compacting in place: the write cursor
	// never passes the read cursor, so cs and vs become the result. A row
	// whose columns already ascend strictly is the order the sort would
	// leave it in — distinct keys have one — and is not sorted.
	w, row := 0, &rowSorter{} // one sorter: a value would be boxed per row
	for i := 0; i < b.rows; i++ {
		lo, hi := int(counts[i]), int(counts[i+1])
		if !strictlyAscending(cs[lo:hi]) {
			row.cols, row.vals = cs[lo:hi], vs[lo:hi]
			sort.Sort(row)
		}
		for k := lo; k < hi; {
			c, v := cs[k], vs[k]
			for k++; k < hi && cs[k] == c; k++ {
				v += vs[k]
			}
			if v != 0 {
				cs[w], vs[w] = c, v
				w++
			}
		}
		m.RowPtr[i+1] = int64(w)
	}
	m.ColIdx, m.Val = cs[:w:w], vs[:w:w]
	return m
}

func strictlyAscending(cols []int32) bool {
	for k := 1; k < len(cols); k++ {
		if cols[k-1] >= cols[k] {
			return false
		}
	}
	return true
}

type rowSorter struct {
	cols []int32
	vals []float64
}

func (s *rowSorter) Len() int           { return len(s.cols) }
func (s *rowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter) Swap(i, j int) {
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
