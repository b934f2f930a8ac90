// Package matrix implements the sparse-matrix kernel used by every other
// subsystem in symcluster: compressed sparse row (CSR) matrices, a COO
// builder, transpose, sparse products with optional prune thresholds,
// diagonal scaling and stochastic normalisation.
//
// All matrices are real-valued with float64 entries. A CSR value is
// immutable by convention once built: operations return new matrices.
// Column indices within each row are kept sorted and duplicate-free,
// which the builders guarantee and the kernels rely on.
package matrix

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row form. Row i occupies
// the half-open range [RowPtr[i], RowPtr[i+1]) of ColIdx and Val.
// ColIdx entries within a row are strictly increasing.
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored (structurally non-zero) entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Row returns the column indices and values of row i. The returned
// slices alias the matrix storage and must not be modified.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the entry at (i, j), zero if not stored. It binary-searches
// the row and therefore costs O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(p int) bool { return cols[p] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// Zero returns an empty Rows×Cols matrix with no stored entries.
func Zero(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int64, n+1),
		ColIdx: make([]int32, n),
		Val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = int64(i + 1)
		m.ColIdx[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

// Diagonal returns the square matrix with d on the diagonal.
func Diagonal(d []float64) *CSR {
	n := len(d)
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for i, v := range d {
		if v != 0 {
			m.ColIdx = append(m.ColIdx, int32(i))
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// Diag extracts the main diagonal as a dense vector.
func (m *CSR) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Validate checks structural invariants: monotone row pointers, in-range
// sorted column indices, finite values. It returns a descriptive error
// for the first violation found, or nil. Intended for tests and for
// checking matrices read from external files.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("matrix: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.ColIdx) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("matrix: nnz mismatch: RowPtr end %d, len(ColIdx) %d, len(Val) %d",
			m.RowPtr[m.Rows], len(m.ColIdx), len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("matrix: RowPtr not monotone at row %d", i)
		}
		cols, vals := m.Row(i)
		for k, c := range cols {
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("matrix: row %d col %d out of range [0,%d)", i, c, m.Cols)
			}
			if k > 0 && cols[k-1] >= c {
				return fmt.Errorf("matrix: row %d columns not strictly increasing at position %d", i, k)
			}
			if math.IsNaN(vals[k]) || math.IsInf(vals[k], 0) {
				return fmt.Errorf("matrix: row %d col %d value %v not finite", i, c, vals[k])
			}
		}
	}
	return nil
}

// Transpose returns mᵀ using a counting pass followed by a scatter pass.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int64, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			p := next[c]
			t.ColIdx[p] = int32(i)
			t.Val[p] = vals[k]
			next[c]++
		}
	}
	return t
}

// IsSymmetric reports whether the matrix equals its transpose to within
// tol in absolute value on every entry.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if m.NNZ() != t.NNZ() {
		// Structure may still match with explicit zeros; fall through to
		// the entrywise comparison via Add below only when counts match.
		// Cheaper: compare entrywise using At on the smaller side.
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if math.Abs(vals[k]-t.At(i, int(c))) > tol {
				return false
			}
		}
	}
	for i := 0; i < t.Rows; i++ {
		cols, vals := t.Row(i)
		for k, c := range cols {
			if math.Abs(vals[k]-m.At(i, int(c))) > tol {
				return false
			}
		}
	}
	return true
}

// Scale returns s·m.
func (m *CSR) Scale(s float64) *CSR {
	c := m.Clone()
	for i := range c.Val {
		c.Val[i] *= s
	}
	return c
}

// ScaleRows returns diag(d)·m, i.e. row i multiplied by d[i].
func (m *CSR) ScaleRows(d []float64) *CSR {
	if len(d) != m.Rows {
		panic(fmt.Sprintf("matrix: ScaleRows vector length %d, want %d", len(d), m.Rows))
	}
	c := m.Clone()
	for i := 0; i < c.Rows; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			c.Val[k] *= d[i]
		}
	}
	return c
}

// ScaleCols returns m·diag(d), i.e. column j multiplied by d[j].
func (m *CSR) ScaleCols(d []float64) *CSR {
	if len(d) != m.Cols {
		panic(fmt.Sprintf("matrix: ScaleCols vector length %d, want %d", len(d), m.Cols))
	}
	c := m.Clone()
	for k, col := range c.ColIdx {
		c.Val[k] *= d[col]
	}
	return c
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	s := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		_, vals := m.Row(i)
		for _, v := range vals {
			s[i] += v
		}
	}
	return s
}

// ColSums returns the vector of column sums.
func (m *CSR) ColSums() []float64 {
	s := make([]float64, m.Cols)
	for k, c := range m.ColIdx {
		s[c] += m.Val[k]
	}
	return s
}

// RowCounts returns the number of stored entries per row (out-degrees
// when the matrix is an adjacency matrix).
func (m *CSR) RowCounts() []int {
	d := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		d[i] = m.RowNNZ(i)
	}
	return d
}

// ColCounts returns the number of stored entries per column (in-degrees
// for an adjacency matrix).
func (m *CSR) ColCounts() []int {
	d := make([]int, m.Cols)
	for _, c := range m.ColIdx {
		d[c]++
	}
	return d
}

// NormalizeRows returns the row-stochastic version of m: each non-empty
// row is divided by its sum. Rows whose sum is zero are left empty; the
// caller decides how to handle such dangling rows (see package walk).
func (m *CSR) NormalizeRows() *CSR {
	c := m.Clone()
	for i := 0; i < c.Rows; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		var sum float64
		for k := lo; k < hi; k++ {
			sum += c.Val[k]
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for k := lo; k < hi; k++ {
			c.Val[k] *= inv
		}
	}
	return c
}

// Prune returns a copy with every entry whose absolute value is strictly
// below threshold removed. Explicitly stored zeros are removed whenever
// threshold > 0.
func (m *CSR) Prune(threshold float64) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if math.Abs(vals[k]) >= threshold && vals[k] != 0 {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// DropDiagonal returns a copy with all diagonal entries removed.
func (m *CSR) DropDiagonal() *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1),
		ColIdx: make([]int32, 0, m.NNZ()), Val: make([]float64, 0, m.NNZ())}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if int(c) != i {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// AddIdentity returns m + I for square m (used for the A := A + I
// self-loop option prior to bibliometric symmetrization, §3.3).
func (m *CSR) AddIdentity() *CSR {
	if m.Rows != m.Cols {
		panic("matrix: AddIdentity on non-square matrix")
	}
	return Add(m, Identity(m.Rows), 1, 1)
}

// MulVec returns m·x as a new dense vector.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("matrix: MulVec vector length %d, want %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
	return y
}

// MulVecT returns mᵀ·x (equivalently xᵀ·m) without materialising the
// transpose.
func (m *CSR) MulVecT(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("matrix: MulVecT vector length %d, want %d", len(x), m.Rows))
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			y[c] += vals[k] * x[i]
		}
	}
	return y
}

// FrobeniusNorm returns the Frobenius norm of the matrix.
func (m *CSR) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Val {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry value, 0 for an empty matrix.
func (m *CSR) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether a and b have identical dimensions and all
// entries agree to within tol (comparing the union of both structures).
func Equal(a, b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	d := Add(a, b, 1, -1)
	return d.MaxAbs() <= tol
}
