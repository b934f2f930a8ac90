package matrix

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// mulTopK, mulPruned and mul run a·b through the engine without
// cancellation: thresholded and top-k capped, thresholded only, and
// unpruned. mulOracle is the independent reference product.
func mulTopK(a, b *CSR, threshold float64, topK int) *CSR {
	out, _ := MulPrunedTopKCtx(context.Background(), a, b, threshold, topK)
	return out
}

func mulPruned(a, b *CSR, threshold float64) *CSR { return mulTopK(a, b, threshold, 0) }

func mul(a, b *CSR) *CSR { return mulTopK(a, b, 0, 0) }

func mulOracle(a, b *CSR, threshold float64) *CSR {
	out, _ := MulPrunedCtx(context.Background(), a, b, threshold)
	return out
}

// denseMul multiplies two dense matrices for use as a reference oracle.
func denseMul(a, b [][]float64) [][]float64 {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for k := 0; k < inner; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func TestAddBasic(t *testing.T) {
	a := FromDense([][]float64{{1, 0}, {2, 3}})
	b := FromDense([][]float64{{0, 5}, {-2, 1}})
	s := Add(a, b, 1, 1)
	mustValidate(t, s)
	want := [][]float64{{1, 5}, {0, 4}}
	got := s.ToDense()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("Add (%d,%d) = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// The cancelled (1,0) entry must be structurally absent.
	if s.RowNNZ(1) != 1 {
		t.Fatalf("cancelled entry stored: row 1 nnz = %d", s.RowNNZ(1))
	}
}

func TestAddScalars(t *testing.T) {
	a := FromDense([][]float64{{2}})
	b := FromDense([][]float64{{3}})
	s := Add(a, b, 2, -1)
	if s.At(0, 0) != 1 {
		t.Fatalf("2·2 - 3 = %v, want 1", s.At(0, 0))
	}
}

func TestAddDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(Zero(2, 2), Zero(2, 3), 1, 1)
}

func TestMulAgainstDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		r := 1 + rng.Intn(15)
		k := 1 + rng.Intn(15)
		c := 1 + rng.Intn(15)
		a := randomCSR(rng, r, k, 0.3, -3, 3)
		b := randomCSR(rng, k, c, 0.3, -3, 3)
		got := mul(a, b)
		mustValidate(t, got)
		want := denseMul(a.ToDense(), b.ToDense())
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if math.Abs(got.At(i, j)-want[i][j]) > 1e-9 {
					t.Fatalf("trial %d: product (%d,%d) = %v, want %v", trial, i, j, got.At(i, j), want[i][j])
				}
			}
		}
	}
}

func TestMulPrunedDropsSmallEntries(t *testing.T) {
	a := FromDense([][]float64{
		{0.1, 0.1},
		{1, 1},
	})
	b := FromDense([][]float64{
		{0.1, 1},
		{0.1, 1},
	})
	// a·b = [[0.02, 0.2], [0.2, 2]]
	p := mulPruned(a, b, 0.1)
	mustValidate(t, p)
	if p.At(0, 0) != 0 {
		t.Fatal("entry below threshold kept")
	}
	if math.Abs(p.At(0, 1)-0.2) > 1e-12 || math.Abs(p.At(1, 1)-2) > 1e-12 {
		t.Fatalf("entries above threshold wrong: %v", p.ToDense())
	}
}

func TestMulPrunedZeroThresholdKeepsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 10, 10, 0.4, 0.1, 1)
	p0 := mulPruned(a, a, 0)
	pn := mul(a, a)
	if !Equal(p0, pn, 0) {
		t.Fatal("threshold 0 differs from unpruned product")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomCSR(rng, 12, 12, 0.3, -2, 2)
	if !Equal(mul(m, Identity(12)), m, 1e-12) {
		t.Fatal("m·I != m")
	}
	if !Equal(mul(Identity(12), m), m, 1e-12) {
		t.Fatal("I·m != m")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mul(Zero(2, 3), Zero(2, 3))
}

// Property: (a·b)ᵀ = bᵀ·aᵀ on random sparse matrices.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		a := randomCSR(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.3, -2, 2)
		b := randomCSR(rng, a.Cols, 1+rng.Intn(12), 0.3, -2, 2)
		lhs := mul(a, b).Transpose()
		rhs := mul(b.Transpose(), a.Transpose())
		if !Equal(lhs, rhs, 1e-9) {
			t.Fatalf("trial %d: (ab)ᵀ != bᵀaᵀ", trial)
		}
	}
}

// Property: matrix product distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(10)
		a := randomCSR(rng, n, n, 0.3, -2, 2)
		b := randomCSR(rng, n, n, 0.3, -2, 2)
		c := randomCSR(rng, n, n, 0.3, -2, 2)
		lhs := mul(a, Add(b, c, 1, 1))
		rhs := Add(mul(a, b), mul(a, c), 1, 1)
		if !Equal(lhs, rhs, 1e-9) {
			t.Fatalf("trial %d: a(b+c) != ab+ac", trial)
		}
	}
}
