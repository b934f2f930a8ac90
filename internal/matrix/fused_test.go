package matrix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
			got := mulXXT(x, xt, rs, cs, th, 1)
			requireBitIdentical(t, want, got)
			// Nil scale vectors are the identity: must match the plain x·xᵀ.
			requireBitIdentical(t, mulOracle(x, xt, th), mulXXT(x, xt, nil, nil, th, 1))
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
				mulXXT(x, xt, nil, nil, 0, workers)
				t.Fatalf("%s, %d workers: product of a non-transpose returned", name, workers)
			}()
		}
	}
}

// sumByComposition is what SumXXTScaledPrunedUpperCtx replaces: each term
// mirrored through MulXXTScaledPrunedCtx's product, the full matrices
// Added left to right from Zero(n, n), then DropDiagonal; and the terms'
// tallies summed.
func sumByComposition(n int, terms []XXTTerm, threshold float64, dropDiag bool) (*CSR, Tally) {
	sum := Zero(n, n)
	var tally Tally
	for _, t := range terms {
		full, tt, err := xxtProduct(t.X, t.XT, t.RowScale, t.ColScale, threshold).run(context.Background(), 1)
		if err != nil {
			panic(err)
		}
		sum = Add(sum, full, 1, 1)
		tally.Add(tt)
	}
	if dropDiag {
		sum = sum.DropDiagonal()
	}
	return sum, tally
}

// randomTerms draws up to three self-product terms over n rows: random
// rectangular operands with few distinct weights, some inexact, and
// scales that are nil or few-valued. A term may reuse the previous
// operand with rows of the row scale negated, so that entries whose two
// rows differ in sign cancel the previous term's to an exact zero.
func randomTerms(rng *rand.Rand, n, count int) []XXTTerm {
	weights := []float64{1, -1, 2, 0.5, 0.1, 0.3}
	few := func(size int, vals ...float64) []float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		s := make([]float64, size)
		for i := range s {
			s[i] = vals[rng.Intn(len(vals))]
		}
		return s
	}
	var terms []XXTTerm
	for k := 0; k < count; k++ {
		if k > 0 && rng.Intn(2) == 0 {
			prev := terms[k-1]
			rs := make([]float64, n)
			for i := range rs {
				rs[i] = 1
				if prev.RowScale != nil {
					rs[i] = prev.RowScale[i]
				}
				if rng.Intn(2) == 0 {
					rs[i] = -rs[i]
				}
			}
			terms = append(terms, XXTTerm{X: prev.X, XT: prev.XT, RowScale: rs, ColScale: prev.ColScale})
			continue
		}
		cols := 1 + rng.Intn(2*n)
		b := NewBuilder(n, cols)
		for e := rng.Intn(4 * n); e > 0; e-- {
			b.Add(rng.Intn(n), rng.Intn(cols), weights[rng.Intn(len(weights))])
		}
		x := b.Build()
		terms = append(terms, XXTTerm{X: x, XT: x.Transpose(), RowScale: few(n, 1, -1, 0.5), ColScale: few(cols, 1, 2, 0.3)})
	}
	return terms
}

// TestSumXXTMatchesComposition: the sum entry is the composition it
// replaced — per-term products, Add left to right, DropDiagonal — once
// mirrored, in math.Float64bits, prune tally and row paths, for zero to
// three terms, with and without a threshold and the diagonal, at
// GOMAXPROCS 1, 2, 3 and 8 over rows that span one tile to several; and
// each sees every running sum, the last being the result.
func TestSumXXTMatchesComposition(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(600)
		terms := randomTerms(rng, n, trial%4)
		for _, th := range []float64{0, 1.5} {
			for _, dropDiag := range []bool{false, true} {
				want, wantTally := sumByComposition(n, terms, th, dropDiag)
				for _, procs := range []int{1, 2, 3, 8} {
					runtime.GOMAXPROCS(procs)
					t.Run(fmt.Sprintf("trial=%d/terms=%d/th=%v/drop=%v/procs=%d", trial, len(terms), th, dropDiag, procs), func(t *testing.T) {
						var seen []*CSR
						up, tally, err := SumXXTScaledPrunedUpperCtx(context.Background(), n, terms, th, dropDiag, func(sum *CSR) error {
							seen = append(seen, sum)
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, want, MirrorUpper(up))
						if tally != wantTally {
							t.Fatalf("tally %+v, want %+v", tally, wantTally)
						}
						if len(seen) != len(terms) || len(terms) > 0 && seen[len(seen)-1] != up {
							t.Fatalf("each saw %d sums of %d terms, the last the result: %v", len(seen), len(terms), len(seen) > 0 && seen[len(seen)-1] == up)
						}
					})
				}
			}
		}
	}
	// An error from each abandons the sum with it.
	stop := errors.New("over budget")
	if _, _, err := SumXXTScaledPrunedUpperCtx(context.Background(), 50, randomTerms(rng, 50, 2), 0, true,
		func(*CSR) error { return stop }); err != stop {
		t.Fatalf("err = %v, want each's", err)
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
