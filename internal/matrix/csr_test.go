package matrix

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustValidate(t *testing.T, m *CSR) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid matrix: %v", err)
	}
}

// randomCSR builds a random rows×cols matrix with the given expected
// density and values in [lo, hi]. Deterministic for a given rng.
func randomCSR(rng *rand.Rand, rows, cols int, density, lo, hi float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, lo+rng.Float64()*(hi-lo))
			}
		}
	}
	return b.Build()
}

func TestZero(t *testing.T) {
	m := Zero(3, 4)
	mustValidate(t, m)
	if m.NNZ() != 0 {
		t.Fatalf("Zero NNZ = %d, want 0", m.NNZ())
	}
	if m.At(1, 2) != 0 {
		t.Fatalf("Zero At = %v, want 0", m.At(1, 2))
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(5)
	mustValidate(t, m)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Fatalf("I(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := Diagonal([]float64{2, 0, -3})
	mustValidate(t, m)
	if m.NNZ() != 2 {
		t.Fatalf("Diagonal NNZ = %d, want 2 (zero dropped)", m.NNZ())
	}
	if m.At(0, 0) != 2 || m.At(2, 2) != -3 || m.At(1, 1) != 0 {
		t.Fatalf("Diagonal entries wrong: %v", m.ToDense())
	}
	d := m.Diag()
	if d[0] != 2 || d[1] != 0 || d[2] != -3 {
		t.Fatalf("Diag() = %v", d)
	}
}

func TestBuilderDuplicatesSummed(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 2.5)
	b.Add(1, 0, -1)
	b.Add(1, 0, 1) // cancels to zero -> dropped
	m := b.Build()
	mustValidate(t, m)
	if got := m.At(0, 1); got != 4 {
		t.Fatalf("summed duplicate = %v, want 4", got)
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled entry dropped)", m.NNZ())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Add")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestBuilderReuseAfterBuild(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	first := b.Build()
	if first.NNZ() != 1 {
		t.Fatalf("first build NNZ = %d", first.NNZ())
	}
	b.Add(1, 1, 2)
	second := b.Build()
	mustValidate(t, second)
	if second.NNZ() != 1 || second.At(1, 1) != 2 || second.At(0, 0) != 0 {
		t.Fatalf("builder not drained between builds: %v", second.ToDense())
	}
}

func TestBuilderReserve(t *testing.T) {
	b := NewBuilder(10, 10)
	b.Add(0, 0, 1)
	b.Reserve(100)
	b.Add(1, 1, 2)
	m := b.Build()
	if m.At(0, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatalf("Reserve lost entries: %v", m.ToDense())
	}
}

// appendingBuild is Builder.Build's assembly as it stood while it
// appended into a growing result: counting sort by row, the same
// per-row sort, then duplicates merged and zeros dropped in two passes.
func appendingBuild(rows, cols int, r, c []int32, v []float64) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	counts := make([]int64, rows+1)
	for _, i := range r {
		counts[i+1]++
	}
	for i := 0; i < rows; i++ {
		counts[i+1] += counts[i]
	}
	cs, vs := make([]int32, len(c)), make([]float64, len(v))
	next := append([]int64(nil), counts[:rows]...)
	for k, i := range r {
		cs[next[i]], vs[next[i]] = c[k], v[k]
		next[i]++
	}
	for i := 0; i < rows; i++ {
		lo, hi := counts[i], counts[i+1]
		sort.Sort(&rowSorter{cols: cs[lo:hi], vals: vs[lo:hi]})
		var prev int32 = -1
		for k := lo; k < hi; k++ {
			if cs[k] == prev {
				m.Val[len(m.Val)-1] += vs[k]
				continue
			}
			prev = cs[k]
			m.ColIdx = append(m.ColIdx, cs[k])
			m.Val = append(m.Val, vs[k])
		}
		w := int(m.RowPtr[i])
		for k := w; k < len(m.ColIdx); k++ {
			if m.Val[k] != 0 {
				m.ColIdx[w], m.Val[w] = m.ColIdx[k], m.Val[k]
				w++
			}
		}
		m.ColIdx, m.Val = m.ColIdx[:w], m.Val[:w]
		m.RowPtr[i+1] = int64(w)
	}
	return m
}

// TestBuildInPlaceMatchesAppendingBuild: compacting in place yields the
// appending assembly's bits — duplicate weights that round differently
// in a different order, sums that cancel to zero, long and empty rows —
// and a shape set by Resize builds like one given up front.
func TestBuildInPlaceMatchesAppendingBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		b := NewBuilder(0, 0)
		b.Resize(n, n)
		var r, c []int32
		var v []float64
		for e := rng.Intn(6 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(1+rng.Intn(n)) // low columns collide often
			val := []float64{0.1, 0.2, 0.3, 1e16, -1e16, 1, -1, 0}[rng.Intn(8)]
			r, c, v = append(r, int32(i)), append(c, int32(j)), append(v, val)
			b.Add(i, j, val)
		}
		requireSameBits(t, trial, b.Build(), appendingBuild(n, n, r, c, v))
	}
}

func requireSameBits(t *testing.T, trial int, got, want *CSR) {
	t.Helper()
	mustValidate(t, got)
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("trial %d: structure differs:\n%v\nvs\n%v", trial, got, want)
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("trial %d: Val[%d] = %v, want %v", trial, k, got.Val[k], want.Val[k])
		}
	}
}

// TestBuildRowMajorMatchesScatter: triplets that arrive with their rows
// in non-decreasing order skip the scatter, and must build to the bits
// the scatter path gives — on the same triplets shuffled, which the
// stable scatter regroups into exactly the row-major sequence. Rows run
// well past the 12 entries below which sort.Sort is a (stable) insertion
// sort, with columns that collide three and more times and inexact
// weights, so the order the unstable sort leaves equal columns in shows
// in the sums. One builder serves every build, so what the fast path
// hands away (its own arrays) must not come back.
func TestBuildRowMajorMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	b := NewBuilder(0, 0)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		type triplet struct {
			i, j int
			v    float64
		}
		ts := make([]triplet, rng.Intn(60*n))
		var r, c []int32
		var v []float64
		for e := range ts {
			ts[e] = triplet{rng.Intn(n), rng.Intn(1 + rng.Intn(4*n)), []float64{0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1, -1, 0}[rng.Intn(9)]}
			r, c, v = append(r, int32(ts[e].i)), append(c, int32(ts[e].j)), append(v, ts[e].v)
		}
		want := appendingBuild(n, 4*n, r, c, v)
		rowMajor := slices.Clone(ts)
		slices.SortStableFunc(rowMajor, func(a, b triplet) int { return a.i - b.i })
		for _, order := range [][]triplet{ts, rowMajor, ts, rowMajor, rowMajor} {
			b.Resize(n, 4*n)
			for _, e := range order {
				b.Add(e.i, e.j, e.v)
			}
			requireSameBits(t, trial, b.Build(), want)
		}
	}
}

// TestQuickBuildChunkedMatchesSortingBuild: a builder that grows by
// chunks, and skips the sort of a row that arrives strictly ascending,
// builds the bits of the one that held flat arrays and sorted every row
// — appendingBuild is that assembly: the same stable scatter, the same
// sort.Sort over the same arrival order. The triplets are a shuffle of
// rows of each kind: ascending (sort skipped), ascending but for one
// duplicate or one inversion (sorted: the summation order of equal
// columns is the sort's), and random with collisions; there are enough
// to seal several chunks, and Reserve lands before, amid or after them.
func TestQuickBuildChunkedMatchesSortingBuild(t *testing.T) {
	f := func(seed int64, nRaw, reserveAt uint8, shuffle bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		cols := 64
		var r, c []int32
		var v []float64
		weights := []float64{0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1, -1, 0}
		for i := 0; i < n; i++ {
			row := rng.Perm(cols)[:rng.Intn(cols)]
			switch kind := rng.Intn(4); {
			case kind < 3:
				slices.Sort(row)
				if k := len(row) - 1; kind == 1 && k > 0 {
					row[rng.Intn(k)+1] = row[rng.Intn(k)] // a duplicate (or an inversion)
				} else if kind == 2 && k > 0 {
					p := rng.Intn(k)
					row[p], row[p+1] = row[p+1], row[p] // one inversion
				}
			default:
				for k := range row {
					row[k] = rng.Intn(1 + rng.Intn(cols)) // collisions, three-way and more
				}
			}
			for _, j := range row {
				r, c, v = append(r, int32(i)), append(c, int32(j)), append(v, weights[rng.Intn(len(weights))])
			}
		}
		if shuffle {
			rng.Shuffle(len(r), func(a, b int) {
				r[a], r[b] = r[b], r[a]
				c[a], c[b] = c[b], c[a]
				v[a], v[b] = v[b], v[a]
			})
		}
		b := NewBuilder(n, cols)
		for k := range r {
			if k == int(reserveAt) {
				b.Reserve(len(r) / (1 + k%3))
			}
			b.Add(int(r[k]), int(c[k]), v[k])
		}
		if b.Len() != len(r) {
			return false
		}
		got, want := b.Build(), appendingBuild(n, cols, r, c, v)
		if got.Validate() != nil || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			return false
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				return false
			}
		}
		return b.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildReservedRowMajorHandsArraysOver: triplets added row-major
// into room reserved up front are one contiguous block, and Build
// returns that block as the matrix — no scatter copy, nothing allocated
// per triplet. multilevel.contract builds every coarse level this way.
func TestBuildReservedRowMajorHandsArraysOver(t *testing.T) {
	const n, perRow = 200, 30
	fill := func() (*Builder, *int32) {
		b := NewBuilder(n, n)
		b.Reserve(n * perRow)
		for i := 0; i < n; i++ {
			for k := 0; k < perRow; k++ {
				b.Add(i, (i*7+k*k)%n, 0.5) // unsorted within the row, duplicates among them
			}
		}
		return b, &b.c[0]
	}
	b, block := fill()
	if m := b.Build(); &m.ColIdx[0] != block {
		t.Fatal("Build copied a reserved row-major block instead of handing it over")
	}
	// The builder, its three arrays, the matrix, its row pointers, the
	// row counts and the sorter.
	if allocs := testing.AllocsPerRun(5, func() {
		b, _ := fill()
		b.Build()
	}); allocs > 8 {
		t.Fatalf("%v allocations for a reserved row-major build, want at most 8", allocs)
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	d := [][]float64{
		{1, 0, 2},
		{0, 0, 0},
		{-3, 4, 0},
	}
	m := FromDense(d)
	mustValidate(t, m)
	got := m.ToDense()
	for i := range d {
		for j := range d[i] {
			if got[i][j] != d[i][j] {
				t.Fatalf("round trip (%d,%d): got %v want %v", i, j, got[i][j], d[i][j])
			}
		}
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
}

func TestTranspose(t *testing.T) {
	m := FromDense([][]float64{
		{1, 2, 0},
		{0, 3, 4},
	})
	tr := m.Transpose()
	mustValidate(t, tr)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(rng, 1+rng.Intn(30), 1+rng.Intn(30), 0.2, -5, 5)
		tt := m.Transpose().Transpose()
		if !Equal(m, tt, 0) {
			t.Fatalf("trial %d: (mᵀ)ᵀ != m", trial)
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := FromDense([][]float64{
		{1, 2, 0},
		{2, 0, 3},
		{0, 3, 5},
	})
	if !sym.IsSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	asym := FromDense([][]float64{
		{0, 1},
		{0, 0},
	})
	if asym.IsSymmetric(0) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	rect := Zero(2, 3)
	if rect.IsSymmetric(0) {
		t.Fatal("rectangular matrix reported symmetric")
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := FromDense([][]float64{
		{1, 2},
		{3, 4},
	})
	r := m.ScaleRows([]float64{2, 10})
	if r.At(0, 1) != 4 || r.At(1, 0) != 30 {
		t.Fatalf("ScaleRows wrong: %v", r.ToDense())
	}
	c := m.ScaleCols([]float64{2, 10})
	if c.At(0, 1) != 20 || c.At(1, 0) != 6 {
		t.Fatalf("ScaleCols wrong: %v", c.ToDense())
	}
	// Originals untouched.
	if m.At(0, 1) != 2 {
		t.Fatal("ScaleRows mutated receiver")
	}
}

func TestRowColSumsAndCounts(t *testing.T) {
	m := FromDense([][]float64{
		{1, 0, 2},
		{0, 3, 0},
	})
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 3 {
		t.Fatalf("RowSums = %v", rs)
	}
	cs := m.ColSums()
	if cs[0] != 1 || cs[1] != 3 || cs[2] != 2 {
		t.Fatalf("ColSums = %v", cs)
	}
	rc := m.RowCounts()
	if rc[0] != 2 || rc[1] != 1 {
		t.Fatalf("RowCounts = %v", rc)
	}
	cc := m.ColCounts()
	if cc[0] != 1 || cc[1] != 1 || cc[2] != 1 {
		t.Fatalf("ColCounts = %v", cc)
	}
}

func TestNormalizeRows(t *testing.T) {
	m := FromDense([][]float64{
		{2, 2, 0},
		{0, 0, 0},
		{0, 0, 5},
	})
	n := m.NormalizeRows()
	mustValidate(t, n)
	if n.At(0, 0) != 0.5 || n.At(0, 1) != 0.5 {
		t.Fatalf("row 0 not normalised: %v", n.ToDense())
	}
	if n.RowNNZ(1) != 0 {
		t.Fatal("empty row gained entries")
	}
	if n.At(2, 2) != 1 {
		t.Fatalf("row 2 = %v, want 1", n.At(2, 2))
	}
}

func TestPrune(t *testing.T) {
	m := FromDense([][]float64{
		{0.5, -0.01, 2},
		{0.009, 0, 1},
	})
	p := m.Prune(0.01)
	mustValidate(t, p)
	if p.NNZ() != 4 {
		t.Fatalf("Prune NNZ = %d, want 4 (|-0.01| kept, 0.009 dropped)", p.NNZ())
	}
	if p.At(1, 0) != 0 {
		t.Fatal("entry below threshold survived")
	}
	if p.At(0, 1) != -0.01 {
		t.Fatal("entry at threshold dropped (threshold is inclusive)")
	}
}

func TestDropDiagonal(t *testing.T) {
	m := FromDense([][]float64{
		{5, 1},
		{2, 7},
	})
	d := m.DropDiagonal()
	mustValidate(t, d)
	if d.At(0, 0) != 0 || d.At(1, 1) != 0 || d.At(0, 1) != 1 || d.At(1, 0) != 2 {
		t.Fatalf("DropDiagonal wrong: %v", d.ToDense())
	}
}

func TestAddIdentity(t *testing.T) {
	m := FromDense([][]float64{
		{1, 1},
		{0, 0},
	})
	ai := m.AddIdentity()
	if ai.At(0, 0) != 2 || ai.At(1, 1) != 1 || ai.At(0, 1) != 1 {
		t.Fatalf("AddIdentity wrong: %v", ai.ToDense())
	}
}

func TestMulVec(t *testing.T) {
	m := FromDense([][]float64{
		{1, 2, 0},
		{0, 0, 3},
	})
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 3 || y[1] != 3 {
		t.Fatalf("MulVec = %v", y)
	}
	yt := m.MulVecT([]float64{1, 2})
	if yt[0] != 1 || yt[1] != 2 || yt[2] != 6 {
		t.Fatalf("MulVecT = %v", yt)
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		m := randomCSR(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.3, -2, 2)
		x := make([]float64, m.Rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := m.MulVecT(x)
		b := m.Transpose().MulVec(x)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVecT disagrees with Transpose().MulVec at %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestFrobeniusNormAndMaxAbs(t *testing.T) {
	m := FromDense([][]float64{
		{3, 0},
		{0, -4},
	})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := Zero(2, 2).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs of zero matrix = %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := FromDense([][]float64{{1, 2}, {3, 4}})
	m.ColIdx[0] = 9 // out of range
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range column")
	}
	m = FromDense([][]float64{{1, 2}})
	m.Val[0] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted NaN")
	}
	m = FromDense([][]float64{{1, 2}})
	m.RowPtr[1] = 5
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted bad RowPtr")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromDense([][]float64{{1, 2}})
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a := FromDense([][]float64{{1, 0}, {0, 2}})
	b := FromDense([][]float64{{1, 0}, {0, 2 + 1e-12}})
	if !Equal(a, b, 1e-9) {
		t.Fatal("Equal rejected near-identical matrices")
	}
	if Equal(a, b, 0) {
		t.Fatal("Equal with zero tol accepted differing matrices")
	}
	if Equal(a, Zero(2, 3), 1) {
		t.Fatal("Equal accepted different shapes")
	}
}
