package matrix

import (
	"context"
	"fmt"
	"runtime"
	"sort"
)

// Fused symmetrization kernels: the diagonal row/column scalings and
// the prune threshold are folded into the SpGEMM accumulator loop, so
// the scaled factor matrices (the X and Y of the degree-discounted
// symmetrization, paper §3.4) are never materialised as matrices. Every
// scaled entry value is computed as (v·row)·col — the exact
// multiplication order of ScaleRows followed by ScaleCols — and the
// product terms accumulate in the same order as a materialized
// Gustavson product, so results are bit-identical to scaling,
// transposing and multiplying explicitly.
//
// The self-product additionally exploits symmetry: X·Xᵀ entry (j,i) is
// the same multiset of products as (i,j) with each factor pair
// commuted, and IEEE-754 multiplication and two-operand addition are
// commutative, so the lower triangle is a bit-exact mirror of the
// upper. Only the upper triangle (≈half the flops) is computed and the
// result is mirrored.

// applyScale folds a diagonal scale factor into v; a nil vector is the
// identity.
func applyScale(v float64, scale []float64, i int32) float64 {
	if scale != nil {
		return v * scale[i]
	}
	return v
}

func checkScaleLen(name string, scale []float64, want int) {
	if scale != nil && len(scale) != want {
		panic(fmt.Sprintf("matrix: %s vector length %d, want %d", name, len(scale), want))
	}
}

// MulXXTScaledPrunedCtx returns the fused symmetric self-product
// S = X·Xᵀ for X = diag(rowScale)·x·diag(colScale), given x and its
// exact transpose xt (xt must carry bit-identical values to
// x.Transpose(); a mapped on-disk transpose qualifies, and anything that
// is not x's transpose in structure panics). Neither X nor Xᵀ is
// materialised as a matrix: scaled values are formed as (v·row)·col, the
// ScaleRows-then-ScaleCols order — x's in the loop, xt's once up front
// into one nnz-long vector — and the call holds that vector and one of
// entry offsets (12 bytes an entry, heap even when xt is mapped).
// Sub-threshold entries are killed during accumulation and never
// allocated.
//
// Only the upper triangle (j ≥ i) is computed — each inner row of xt is
// entered at the position of column i, halving the flop count — and the
// strict upper entries are mirrored into the lower triangle.
// Commutativity of IEEE multiplication and two-operand addition makes
// the mirrored triangle bit-identical to computing it directly, so the
// result is bit-identical to
//
//	MulPrunedCtx(ctx, X, X.Transpose(), threshold)
//
// for the materialized X, including the threshold kills (mirrored kills
// count twice, diagonal kills once — exactly the oracle's count), which
// the product's tally carries (xxtProduct(…).run returns it).
//
// workers is the engine's worker count (engine.go): every count gives
// the same bits, workers <= 0 selects GOMAXPROCS, and a cancelled ctx
// aborts at the next tile boundary with ctx's error.
func MulXXTScaledPrunedCtx(ctx context.Context, x, xt *CSR, rowScale, colScale []float64, threshold float64, workers int) (*CSR, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out, _, err := xxtProduct(x, xt, rowScale, colScale, threshold).run(ctx, workers)
	return out, err
}

// XXTTerm is one self-product of a sum: X·Xᵀ for X = diag(RowScale)·X·
// diag(ColScale), XT the exact transpose of X, a nil scale the identity.
type XXTTerm struct {
	X, XT              *CSR
	RowScale, ColScale []float64
}

// SumXXTScaledPrunedUpperCtx returns the upper triangle (j ≥ i) of the
// n×n sum of the terms' self-products, and the terms' tallies summed.
// Its mirror is, bit for bit, MulXXTScaledPrunedCtx of each term Added
// left to right onto Zero(n, n), then DropDiagonal when dropDiag, and
// the tally that of the terms' one-term products. Each term is its own
// engine pass under threshold, and each row it flushes is merged onto
// that row of the running sum at once (Add's merge), so no term's
// triangle and no copy of the sum is built; the passes share one
// workspace. each, when set, sees every running sum as it completes, and
// its error abandons the sum. Workers are derived; a cancelled ctx aborts
// at the next tile boundary with ctx's error. On error the tally is the
// completed terms'.
func SumXXTScaledPrunedUpperCtx(ctx context.Context, n int, terms []XXTTerm, threshold float64, dropDiag bool, each func(sum *CSR) error) (*CSR, Tally, error) {
	sum, ws := Zero(n, n), &workspace{}
	var tally Tally
	for _, t := range terms {
		p := xxtProduct(t.X, t.XT, t.RowScale, t.ColScale, threshold)
		if p.rows != n {
			panic(fmt.Sprintf("matrix: SumXXTScaledPrunedUpperCtx term of %d rows in a sum of %d", p.rows, n))
		}
		prev := sum
		p.merge = func(i int, row rowSink, sink *rowSink) {
			skip := int32(-1)
			if dropDiag {
				skip = int32(i)
			}
			pc, pv := prev.Row(i)
			sink.cols, sink.vals = addRow(sink.cols, sink.vals, pc, pv, row.cols, row.vals, 1, 1, skip)
		}
		sum = &CSR{}
		pass, err := p.runInto(ctx, runtime.GOMAXPROCS(0), ws, sum)
		if err != nil {
			return nil, tally, err
		}
		tally.Add(pass)
		if each != nil {
			if err := each(sum); err != nil {
				return nil, tally, err
			}
		}
	}
	return sum, tally, nil
}

// xxtProduct is the engine spec behind MulXXTScaledPrunedCtx: the
// scaled upper-triangle row scatter under a threshold flush, mirrored.
// xt's values are scaled once up front — entry (c, j) carries x's raw
// value at (j, c), and (v·rowScale[j])·colScale[c] is X.Transpose()'s
// value exactly — so the inner loop is one multiply per flop with no
// rowScale gather; with no scaling at all the vector is xt.Val itself.
//
// The upper-triangle contributions of output row i come, for each entry
// (i, c) of x, from the part of xt's row c at columns ≥ i, and that part
// starts at the entry (c, i) itself. xt's row c lists the rows of x that
// hold c in ascending order, so walking x's entries in order and
// counting the visits to each column gives every entry its position in
// xt's row: start is that count, and no row is searched.
func xxtProduct(x, xt *CSR, rowScale, colScale []float64, threshold float64) *product {
	if x.Cols != xt.Rows || x.Rows != xt.Cols {
		panic(fmt.Sprintf("matrix: MulXXTScaledPrunedCtx transpose shape mismatch %dx%d vs %dx%d", x.Rows, x.Cols, xt.Rows, xt.Cols))
	}
	checkScaleLen("MulXXTScaledPrunedCtx rowScale", rowScale, x.Rows)
	checkScaleLen("MulXXTScaledPrunedCtx colScale", colScale, x.Cols)
	sv := xt.Val
	if rowScale != nil || colScale != nil {
		sv = make([]float64, len(xt.Val))
		for c := 0; c < xt.Rows; c++ {
			for t := xt.RowPtr[c]; t < xt.RowPtr[c+1]; t++ {
				sv[t] = applyScale(applyScale(xt.Val[t], rowScale, xt.ColIdx[t]), colScale, int32(c))
			}
		}
	}
	start, visits := make([]int32, len(x.ColIdx)), make([]int32, x.Cols)
	for t, c := range x.ColIdx {
		start[t] = visits[c]
		visits[c]++
	}
	return &product{
		rows:      x.Rows,
		cols:      x.Rows,
		threshold: threshold,
		mirrored:  true,
		bound:     func(i int) int { return rowFlops(x, xt, i) },
		scatter: func(i int, spa *accumulator) {
			lo := x.RowPtr[i]
			ac, av := x.Row(i)
			for k, c := range ac {
				w := applyScale(applyScale(av[k], rowScale, int32(i)), colScale, c)
				from, hi := xt.RowPtr[c]+int64(start[lo+int64(k)]), xt.RowPtr[c+1]
				if from >= hi || xt.ColIdx[from] != int32(i) {
					panic(fmt.Sprintf("matrix: MulXXTScaledPrunedCtx: xt is not the transpose of x: x holds (%d,%d), xt's row %d does not hold %d where the transpose would", i, c, c, i))
				}
				spa.axpy(w, xt.ColIdx[from:hi], sv[from:hi])
			}
		},
	}
}

// MirrorUpper expands an upper-triangular matrix (every stored entry of
// row i has column ≥ i) into the full symmetric matrix, copying each
// strict-upper value to its mirror position. One counting pass sizes
// the result exactly; the scatter pass preserves sorted column order
// because mirrored entries of row j (columns i < j) arrive in ascending
// i before row j's own entries (columns ≥ j) are appended.
func MirrorUpper(up *CSR) *CSR {
	n := up.Rows
	out := &CSR{Rows: n, Cols: up.Cols, RowPtr: make([]int64, n+1)}
	counts := make([]int64, n)
	for i := 0; i < n; i++ {
		cols, _ := up.Row(i)
		counts[i] += int64(len(cols))
		for _, j := range cols {
			if int(j) != i {
				counts[j]++
			}
		}
	}
	var nnz int64
	for i, c := range counts {
		nnz += c
		out.RowPtr[i+1] = nnz
	}
	out.ColIdx = make([]int32, nnz)
	out.Val = make([]float64, nnz)
	next := make([]int64, n)
	copy(next, out.RowPtr[:n])
	for i := 0; i < n; i++ {
		cols, vals := up.Row(i)
		for k, j := range cols {
			p := next[i]
			out.ColIdx[p] = j
			out.Val[p] = vals[k]
			next[i]++
			if int(j) != i {
				q := next[j]
				out.ColIdx[q] = int32(i)
				out.Val[q] = vals[k]
				next[j]++
			}
		}
	}
	return out
}

// AddTransposeSym returns scale·M + scale·Mᵀ for square m without
// materialising the full transpose: only the strict lower triangle is
// transposed (half the transpose workspace), the upper triangle of the
// sum is merged directly, and the strict-upper entries are mirrored.
// Because both coefficients are equal, the mirrored entry
// scale·M[i,j] + scale·M[j,i] is the bit-exact commutation of the
// directly-computed scale·M[j,i] + scale·M[i,j], so the result is
// bit-identical to Add(m, m.Transpose(), scale, scale) — this is the
// shared triangle-and-mirror helper behind the A+Aᵀ and random-walk
// (Zhou-style ΠP + PᵀΠ) symmetrizations.
func AddTransposeSym(m *CSR, scale float64) *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("matrix: AddTransposeSym on non-square %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	// Transpose of the strict lower triangle: ltCols/ltVals row c holds
	// the original rows i > c with an (i, c) entry, in ascending i —
	// exactly the columns > c of Mᵀ's row c.
	ltPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if int(c) < i {
				ltPtr[c+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ltPtr[i+1] += ltPtr[i]
	}
	ltCols := make([]int32, ltPtr[n])
	ltVals := make([]float64, ltPtr[n])
	ltNext := make([]int64, n)
	copy(ltNext, ltPtr[:n])
	for i := 0; i < n; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if int(c) < i {
				p := ltNext[c]
				ltCols[p] = int32(i)
				ltVals[p] = vals[k]
				ltNext[c]++
			}
		}
	}

	// Merge the upper triangle of scale·M + scale·Mᵀ row by row. The
	// value arithmetic replicates Add's merge exactly: both present ⇒
	// scale·av + scale·bv (a-side term first), one side ⇒ that term
	// alone, exact zeros dropped.
	up := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		acols, avals := m.Row(i)
		p := sort.Search(len(acols), func(k int) bool { return acols[k] >= int32(i) })
		blo, bhi := ltPtr[i], ltPtr[i+1]
		q := blo
		for p < len(acols) || q < bhi {
			var col int32
			var val float64
			switch {
			case q >= bhi || (p < len(acols) && acols[p] < ltCols[q]):
				col = acols[p]
				if int(col) == i {
					// Diagonal: Mᵀ holds the same entry, so both merge
					// arms fire with the same value.
					val = scale*avals[p] + scale*avals[p]
				} else {
					val = scale * avals[p]
				}
				p++
			case p >= len(acols) || ltCols[q] < acols[p]:
				col, val = ltCols[q], scale*ltVals[q]
				q++
			default:
				col, val = acols[p], scale*avals[p]+scale*ltVals[q]
				p++
				q++
			}
			if val != 0 {
				up.ColIdx = append(up.ColIdx, col)
				up.Val = append(up.Val, val)
			}
		}
		up.RowPtr[i+1] = int64(len(up.ColIdx))
	}
	return MirrorUpper(up)
}
