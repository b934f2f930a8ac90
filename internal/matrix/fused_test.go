package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// requireBitIdentical fails unless got and want have identical
// structure and bit-identical values — the contract every engine product
// must satisfy against the oracle.
func requireBitIdentical(t *testing.T, want, got *CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols || want.NNZ() != got.NNZ() {
		t.Fatalf("shape/nnz mismatch: got %dx%d/%d, want %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d] differs: %d vs %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if want.ColIdx[k] != got.ColIdx[k] {
			t.Fatalf("ColIdx[%d] differs: %d vs %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if math.Float64bits(want.Val[k]) != math.Float64bits(got.Val[k]) {
			t.Fatalf("Val[%d]: %v vs %v — not bit-identical", k, got.Val[k], want.Val[k])
		}
	}
}

func randomScale(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.05 + rng.Float64()
	}
	return s
}

func TestMulXXTScaledPrunedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		rows := 5 + rng.Intn(100)
		cols := 5 + rng.Intn(60)
		x := randomCSR(rng, rows, cols, 0.15, 0, 2)
		rs := randomScale(rng, rows)
		cs := randomScale(rng, cols)
		xt := x.Transpose()
		for _, th := range []float64{0, 0.05, 0.5} {
			xs := x.ScaleRows(rs).ScaleCols(cs)
			want := mulOracle(xs, xs.Transpose(), th)
			got := MulXXTScaledPruned(x, xt, rs, cs, th, 1)
			requireBitIdentical(t, want, got)
			// Nil scale vectors are the identity: must match the plain x·xᵀ.
			requireBitIdentical(t, mulOracle(x, xt, th), MulXXTScaledPruned(x, xt, nil, nil, th, 1))
		}
	}
}

func TestAddTransposeSymMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(80)
		m := randomCSR(rng, n, n, 0.2, -2, 2)
		for _, scale := range []float64{1, 0.5} {
			want := Add(m, m.Transpose(), scale, scale)
			got := AddTransposeSym(m, scale)
			requireBitIdentical(t, want, got)
		}
	}
	// Reciprocal entries that cancel to exactly zero must be dropped,
	// matching Add's zero-drop, and the diagonal must double.
	b := NewBuilder(3, 3)
	b.Add(0, 1, 2)
	b.Add(1, 0, -2)
	b.Add(2, 2, 1.5)
	b.Add(0, 2, 1)
	m := b.Build()
	requireBitIdentical(t, Add(m, m.Transpose(), 1, 1), AddTransposeSym(m, 1))
}
