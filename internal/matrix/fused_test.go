package matrix

import (
	"math"
	"math/rand"
	"strings"
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

// TestMulXXTRejectsNonTranspose: the scatter enters xt's row c where the
// transpose holds (c, i) without searching for it, so an xt that is some
// other matrix of the right shape must stop the product — it used to be
// searched, and multiplied into a wrong answer. On spawned workers too:
// the driver re-raises the panic on the caller's goroutine.
func TestMulXXTRejectsNonTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x := randomCSR(rng, 300, 200, 0.1, 0, 2)
	other := randomCSR(rng, 300, 200, 0.1, 0, 2).Transpose()
	short := x.Transpose()
	for c := 100; c < len(short.RowPtr); c++ {
		short.RowPtr[c] = short.RowPtr[100] // rows 100… emptied: the offset runs off the row's end
	}
	for name, xt := range map[string]*CSR{"other matrix": other, "truncated": short} {
		for _, workers := range []int{1, 2} {
			func() {
				defer func() {
					r, _ := recover().(string)
					if !strings.Contains(r, "xt is not the transpose of x") {
						t.Fatalf("%s, %d workers: recovered %q, want the transpose contract", name, workers, r)
					}
				}()
				MulXXTScaledPruned(x, xt, nil, nil, 0, workers)
				t.Fatalf("%s, %d workers: product of a non-transpose returned", name, workers)
			}()
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
