package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sparseGen is a generator of random sparse matrices for testing/quick.
// Dimensions stay small so dense oracles are cheap.
type sparseGen struct {
	M *CSR
}

// Generate implements quick.Generator.
func (sparseGen) Generate(rng *rand.Rand, size int) reflect.Value {
	rows := 1 + rng.Intn(12)
	cols := 1 + rng.Intn(12)
	b := NewBuilder(rows, cols)
	entries := rng.Intn(rows * cols)
	for e := 0; e < entries; e++ {
		// Small integer-ish values keep dense-oracle comparisons exact
		// enough for tight tolerances.
		v := float64(rng.Intn(9) - 4)
		if v != 0 {
			b.Add(rng.Intn(rows), rng.Intn(cols), v)
		}
	}
	return reflect.ValueOf(sparseGen{M: b.Build()})
}

// squareGen generates random square sparse matrices.
type squareGen struct {
	M *CSR
}

// Generate implements quick.Generator.
func (squareGen) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(10)
	b := NewBuilder(n, n)
	entries := rng.Intn(n * n)
	for e := 0; e < entries; e++ {
		v := float64(rng.Intn(9) - 4)
		if v != 0 {
			b.Add(rng.Intn(n), rng.Intn(n), v)
		}
	}
	return reflect.ValueOf(squareGen{M: b.Build()})
}

var quickCfg = &quick.Config{MaxCount: 200}

func TestQuickBuildValidates(t *testing.T) {
	f := func(g sparseGen) bool {
		return g.M.Validate() == nil
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(g sparseGen) bool {
		return Equal(g.M.Transpose().Transpose(), g.M, 0)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposePreservesNNZ(t *testing.T) {
	f := func(g sparseGen) bool {
		return g.M.Transpose().NNZ() == g.M.NNZ()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(g, h squareGen) bool {
		a, b := padToSame(g.M, h.M)
		return Equal(Add(a, b, 1, 1), Add(b, a, 1, 1), 1e-12)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubtractRoundTrip(t *testing.T) {
	f := func(g, h squareGen) bool {
		a, b := padToSame(g.M, h.M)
		// (a + b) - b == a
		return Equal(Add(Add(a, b, 1, 1), b, 1, -1), a, 1e-12)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulAssociativeWithVector(t *testing.T) {
	// (a·b)·x == a·(b·x) for random square matrices and vectors.
	f := func(g, h squareGen, seed int64) bool {
		a, b := padToSame(g.M, h.M)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lhs := mul(a, b).MulVec(x)
		rhs := a.MulVec(b.MulVec(x))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAATSymmetricPSDDiagonal(t *testing.T) {
	f := func(g sparseGen) bool {
		p := MulXXTScaledPruned(g.M, g.M.Transpose(), nil, nil, 0, 1)
		if !p.IsSymmetric(1e-9) {
			return false
		}
		// Diagonal of X·Xᵀ is a sum of squares: never negative.
		for _, d := range p.Diag() {
			if d < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPruneSubsetAndThreshold(t *testing.T) {
	f := func(g sparseGen, thRaw uint8) bool {
		th := float64(thRaw) / 64
		p := g.M.Prune(th)
		if p.NNZ() > g.M.NNZ() {
			return false
		}
		for i := 0; i < p.Rows; i++ {
			cols, vals := p.Row(i)
			for k, c := range cols {
				if math.Abs(vals[k]) < th {
					return false
				}
				if g.M.At(i, int(c)) != vals[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeRowsStochastic(t *testing.T) {
	f := func(g sparseGen) bool {
		// Use absolute values so row sums are positive where non-empty.
		m := g.M.Clone()
		for i := range m.Val {
			m.Val[i] = math.Abs(m.Val[i])
		}
		m = m.Prune(1e-12)
		n := m.NormalizeRows()
		for i := 0; i < n.Rows; i++ {
			_, vals := n.Row(i)
			if len(vals) == 0 {
				continue
			}
			var sum float64
			for _, v := range vals {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleRowsColsViaDiagonal(t *testing.T) {
	// diag(d)·m == ScaleRows and m·diag(d) == ScaleCols.
	f := func(g sparseGen, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dr := make([]float64, g.M.Rows)
		for i := range dr {
			dr[i] = rng.NormFloat64()
		}
		dc := make([]float64, g.M.Cols)
		for i := range dc {
			dc[i] = rng.NormFloat64()
		}
		if !Equal(mul(Diagonal(dr), g.M), g.M.ScaleRows(dr), 1e-9) {
			return false
		}
		return Equal(mul(g.M, Diagonal(dc)), g.M.ScaleCols(dc), 1e-9)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// padToSame embeds two square matrices into a common dimension so
// binary operations are well-defined for independently generated
// operands.
func padToSame(a, b *CSR) (*CSR, *CSR) {
	n := a.Rows
	if b.Rows > n {
		n = b.Rows
	}
	return pad(a, n), pad(b, n)
}

func pad(m *CSR, n int) *CSR {
	if m.Rows == n && m.Cols == n {
		return m
	}
	bld := NewBuilder(n, n)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			bld.Add(i, int(c), vals[k])
		}
	}
	return bld.Build()
}
