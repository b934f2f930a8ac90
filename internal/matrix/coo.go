package matrix

import (
	"fmt"
	"sort"
)

// Builder accumulates (row, col, value) triplets and assembles them into
// a CSR matrix. Duplicate coordinates are summed. It is the standard way
// to construct matrices from edge lists and generators.
type Builder struct {
	rows, cols int
	r, c       []int32
	v          []float64
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Reserve grows the internal triplet storage to hold at least n entries,
// avoiding repeated reallocation when the caller knows the edge count.
func (b *Builder) Reserve(n int) {
	if cap(b.r) < n {
		r := make([]int32, len(b.r), n)
		copy(r, b.r)
		b.r = r
		c := make([]int32, len(b.c), n)
		copy(c, b.c)
		b.c = c
		v := make([]float64, len(b.v), n)
		copy(v, b.v)
		b.v = v
	}
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
		// Double: append's 1.25× steps copy a large edge list five times over.
		b.Reserve(max(2*cap(b.r), 64))
	}
	b.r = append(b.r, int32(i))
	b.c = append(b.c, int32(j))
	b.v = append(b.v, val)
}

// Len returns the number of recorded triplets (before deduplication).
func (b *Builder) Len() int { return len(b.r) }

// Build assembles the triplets into CSR form, summing duplicates and
// dropping entries that sum to exactly zero. The Builder is drained and
// may be reused afterwards.
func (b *Builder) Build() *CSR {
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int64, b.rows+1)}
	if len(b.r) == 0 {
		return m
	}

	// Counting sort by row, then sort each row's slice by column. This is
	// O(nnz + rows + Σ r log r) and avoids sorting the full triplet list.
	counts := make([]int64, b.rows+1)
	rowMajor := true
	for k, i := range b.r {
		counts[i+1]++
		rowMajor = rowMajor && (k == 0 || b.r[k-1] <= i)
	}
	for i := 0; i < b.rows; i++ {
		counts[i+1] += counts[i]
	}
	// The stable scatter is the identity on triplets that arrived
	// row-major: there the builder's own arrays become the result.
	cs, vs := b.c, b.v
	if rowMajor {
		b.r, b.c, b.v = nil, nil, nil
	} else {
		cs, vs = make([]int32, len(b.c)), make([]float64, len(b.v))
		next := make([]int64, b.rows)
		copy(next, counts[:b.rows])
		for k, i := range b.r {
			p := next[i]
			cs[p] = b.c[k]
			vs[p] = b.v[k]
			next[i]++
		}
		b.r, b.c, b.v = b.r[:0], b.c[:0], b.v[:0]
	}

	// Sort each row by column, then sum duplicates and drop the exact
	// zeros cancellation leaves, compacting in place: the write cursor
	// never passes the read cursor, so cs and vs become the result.
	w, row := 0, &rowSorter{} // one sorter: a value would be boxed per row
	for i := 0; i < b.rows; i++ {
		lo, hi := int(counts[i]), int(counts[i+1])
		row.cols, row.vals = cs[lo:hi], vs[lo:hi]
		sort.Sort(row)
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
