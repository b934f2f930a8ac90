package matrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Row modes as the accumulator's test hook names them.
const (
	modeDerived int8 = 0
	modeDense   int8 = 1
	modeMarked  int8 = -1
)

// runForced drives p on workers accumulators held to one row mode and
// returns the (mirrored, if p is) result, the threshold-kill tally and
// how many top-k selections fell back from their hint. A forced mode
// must show in the row paths: every row dense, or none.
func runForced(t *testing.T, p *product, workers int, mode int8) (out *CSR, killed, fallbacks int64) {
	t.Helper()
	ws := &workspace{}
	for w := 0; w < workers; w++ {
		spa := newAccumulator(p.cols, 1)
		spa.force = mode
		ws.spas = append(ws.spas, spa)
	}
	out = &CSR{}
	tally, err := p.runInto(context.Background(), workers, ws, out)
	if err != nil {
		t.Fatal(err)
	}
	if p.mirrored {
		out = MirrorUpper(out)
	}
	if want := int64(p.rows); mode != modeDerived && tally.DenseRows != want*int64(b2i(mode == modeDense)) {
		t.Fatalf("%d of %d rows ran dense in mode %d", tally.DenseRows, want, mode)
	}
	return out, tally.Killed, tally.Fallbacks
}

// oracleProduct is the reference every test here compares against: the
// sequential oracle, then a full sort and truncation of each row.
func oracleProduct(t *testing.T, a, b *CSR, threshold float64, k int) (*CSR, int64) {
	t.Helper()
	full, killed, err := MulPrunedCtx(context.Background(), a, b, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return truncateTopK(full, k), killed
}

// fullSpan returns x with column 0 and row r filled in: every row of
// x·xᵀ then touches every column of its span on its first operand row
// and touches them again on each later one — a marked row whose list
// is full long before its last add.
func fullSpan(x *CSR, r int) *CSR {
	b := NewBuilder(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		cols, vals := x.Row(i)
		for k, c := range cols {
			b.Add(i, int(c), vals[k])
		}
		b.Add(i, 0, 0.5)
		b.Add(r, i, 0.25)
	}
	return b.Build()
}

// TestForcedRowModesAgree: the accumulator's two modes are one
// function. The same random product with every row forced dense, every
// row forced marked and every row left to the derived rule gives the
// oracle's bits and the oracle's kill tally — both specs, with and
// without a threshold and a top-k, at every worker count, under each
// dense-scan body, on a sparse graph and on one whose rows span every
// column (fullSpan).
func TestForcedRowModesAgree(t *testing.T) {
	eachScanBody(t, testForcedRowModesAgree)
}

func testForcedRowModesAgree(t *testing.T) {
	for _, in := range []struct {
		name string
		x    *CSR
	}{{"sparse", benchGraph(540, 6)}, {"full-span", fullSpan(benchGraph(200, 3), 7)}} {
		testForcedRowModesOn(t, in.name, in.x)
	}
}

func testForcedRowModesOn(t *testing.T, graph string, x *CSR) {
	rng := rand.New(rand.NewSource(16))
	xt := x.Transpose()
	rs, cs := randomScale(rng, x.Rows), randomScale(rng, x.Cols)
	xs := x.ScaleRows(rs).ScaleCols(cs)
	xst := xs.Transpose()
	for _, th := range []float64{0, 0.2} {
		for _, k := range []int{0, 7} {
			want, wantKilled := oracleProduct(t, xs, xst, th, k)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, mode := range []int8{modeDense, modeMarked, modeDerived} {
					specs := map[string]*product{"topk": topKProduct(xs, xst, th, k)}
					if k == 0 {
						specs["xxt"] = xxtProduct(x, xt, rs, cs, th)
					}
					for name, p := range specs {
						t.Run(fmt.Sprintf("%s/%s/th=%v/k=%d/workers=%d/mode=%d", graph, name, th, k, workers, mode), func(t *testing.T) {
							got, killed, _ := runForced(t, p, workers, mode)
							requireBitIdentical(t, want, got)
							if killed != wantKilled {
								t.Fatalf("killed %d, want %d", killed, wantKilled)
							}
						})
					}
				}
			}
		}
	}
}

// TestAdversarialRows: the rows the new paths could get wrong — sums
// that cancel to exactly zero, a product that underflows to −0, NaN and
// infinite operands (a NaN sum dies at every threshold, zero included,
// and is tallied), negative values, ties at the k-th magnitude
// straddling the cut (the lower column wins), a row that touches every
// column of its span and then touches some again — in every row mode,
// against the sorted truncation of the oracle, values and kill tally,
// under each dense-scan body.
func TestAdversarialRows(t *testing.T) {
	eachScanBody(t, testAdversarialRows)
}

func testAdversarialRows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		a, b [][]float64
	}{
		{"cancellation", [][]float64{{1, -1, 1}}, [][]float64{{3, 5, 0}, {3, 4, 0}, {0, 0, 7}}},
		{"negative-zero", [][]float64{{-1e-200, 1}}, [][]float64{{1e-200, 0, 1e-200}, {0, 2, 0}}},
		{"nan", [][]float64{{1, 1}}, [][]float64{{nan, 1, 2, 0.1}, {1, 1, 0, 0}}},
		{"inf", [][]float64{{1, 1}}, [][]float64{{inf, inf, 1, -inf}, {-inf, 1, 1, 1}}},
		{"ties-at-cut", [][]float64{{1}}, [][]float64{{-2, 2, 1, -2, 2, 3}}},
		{"all-tied", [][]float64{{1, 1}}, [][]float64{{1, 1, 0, 1, 1}, {0, 0, 1, 0, 0}}},
		{"nan-among-ties", [][]float64{{1, 1}}, [][]float64{{2, nan, 2, 2, 1}, {0, 0, 0, 0, 0.5}}},
		{"full-span", [][]float64{{1, 1, 1}}, [][]float64{{1, 2, 3, 4}, {5, 0, -3, 0}, {0, -6, 0, 9}}},
	} {
		a, b := FromDense(tc.a), FromDense(tc.b)
		for _, th := range []float64{0, 0.5, 2.5} {
			for k := 0; k <= b.Cols; k++ {
				want, wantKilled := oracleProduct(t, a, b, th, k)
				for _, mode := range []int8{modeDense, modeMarked, modeDerived} {
					t.Run(fmt.Sprintf("%s/th=%v/k=%d/mode=%d", tc.name, th, k, mode), func(t *testing.T) {
						got, killed, _ := runForced(t, topKProduct(a, b, th, k), 1, mode)
						requireBitIdentical(t, want, got)
						if killed != wantKilled {
							t.Fatalf("killed %d, want %d", killed, wantKilled)
						}
					})
				}
			}
		}
	}
	// The mirrored self-product: a row that kills its own diagonal (one
	// kill, not two), one that kills an off-diagonal pair, a NaN on and
	// off the diagonal, an off-diagonal sum that cancels.
	for _, tc := range []struct {
		name string
		x    [][]float64
	}{
		{"diagonal-killed", [][]float64{{0.1, 0}, {0, 3}}},
		{"pair-killed", [][]float64{{1, 0.1}, {0.1, 1}}},
		{"nan", [][]float64{{nan, 1}, {1, 1}, {0, 2}}},
		{"cancellation", [][]float64{{1, -1}, {1, 1}, {-3, 0.2}}},
		{"full-span", [][]float64{{1, 2, 3}, {1, 0, 0}, {0.5, 0, 0}}},
	} {
		x := FromDense(tc.x)
		xt := x.Transpose()
		for _, th := range []float64{0, 0.5, 5} {
			want, wantKilled := oracleProduct(t, x, xt, th, 0)
			for _, mode := range []int8{modeDense, modeMarked, modeDerived} {
				t.Run(fmt.Sprintf("mirrored/%s/th=%v/mode=%d", tc.name, th, mode), func(t *testing.T) {
					got, killed, _ := runForced(t, xxtProduct(x, xt, nil, nil, th), 1, mode)
					requireBitIdentical(t, want, got)
					if killed != wantKilled {
						t.Fatalf("killed %d, want %d", killed, wantKilled)
					}
				})
			}
		}
	}
}

// TestTauHintIsExact: whatever a row's τ hint holds — nothing, the cut
// the same product left (no row falls back), one far too high (every
// row falls back), one left by a different product over the same rows —
// the top-k product is the hint-free product bit for bit, in every row
// mode at every worker count; and under a real threshold the hint is
// not consulted at all. The τ vector is written by whichever worker
// owns the row, so this is also the race detector's matrix.
func TestTauHintIsExact(t *testing.T) {
	const k = 7
	rng := rand.New(rand.NewSource(17))
	x := benchGraph(540, 8)
	xs := x.ScaleRows(randomScale(rng, x.Rows)).ScaleCols(randomScale(rng, x.Cols))
	xst := xs.Transpose()
	other := x.ScaleCols(randomScale(rng, x.Cols))

	left := func(a, b *CSR) []float64 {
		p := topKProduct(a, b, 0, k)
		p.tau = make([]float64, a.Rows)
		runForced(t, p, 1, modeDerived)
		return p.tau
	}
	tooHigh := make([]float64, x.Rows)
	for i := range tooHigh {
		tooHigh[i] = 1e300
	}
	selections := 0 // rows with k entries or more: they have a k-th magnitude
	full, _ := oracleProduct(t, xs, xst, 0, 0)
	for i := 0; i < full.Rows; i++ {
		if cols, _ := full.Row(i); len(cols) >= k {
			selections++
		}
	}
	for _, th := range []float64{0, 0.2} {
		want, wantKilled := oracleProduct(t, xs, xst, th, k)
		for _, hint := range []struct {
			name      string
			tau       []float64
			fallbacks int // at threshold 0; -1: whatever it takes
		}{
			{"zero", make([]float64, x.Rows), 0},
			{"own", left(xs, xst), 0},
			{"too-high", tooHigh, x.Rows},
			{"other-product", left(other, xst), -1},
			{"squared", left(xs, xs), -1},
		} {
			for _, workers := range []int{1, 2, 3, 8} {
				for _, mode := range []int8{modeDense, modeMarked, modeDerived} {
					t.Run(fmt.Sprintf("th=%v/%s/workers=%d/mode=%d", th, hint.name, workers, mode), func(t *testing.T) {
						p := topKProduct(xs, xst, th, k)
						p.tau = slices.Clone(hint.tau)
						got, killed, fallbacks := runForced(t, p, workers, mode)
						requireBitIdentical(t, want, got)
						if killed != wantKilled {
							t.Fatalf("killed %d, want %d", killed, wantKilled)
						}
						wantFallbacks := int64(hint.fallbacks)
						if th > 0 {
							wantFallbacks = 0
						}
						if wantFallbacks >= 0 && fallbacks != wantFallbacks {
							t.Fatalf("%d rows fell back, want %d", fallbacks, wantFallbacks)
						}
						// What a row leaves is its k-th magnitude, or zero
						// when it has none.
						cut := 0
						for _, tau := range p.tau {
							if tau > 0 {
								cut++
							}
						}
						if th == 0 && cut != selections {
							t.Fatalf("%d rows left a cut, want %d", cut, selections)
						}
					})
				}
			}
		}
	}
}

// TestExpanderHintsAcrossProducts: one Expander taken through what a
// solve takes it through — the same shape with other values, a smaller
// shape and back (an MLR-MCL level change), a flow squared again and
// again (plain MCL, where the right operand moves with the left) — gives
// the oracle's product every time, at every worker count it can derive.
func TestExpanderHintsAcrossProducts(t *testing.T) {
	const k = 9
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	rng := rand.New(rand.NewSource(18))
	big, small := benchGraph(540, 8), benchGraph(90, 3)
	rescaled := big.ScaleRows(randomScale(rng, big.Rows))
	flow := big.ScaleCols(randomScale(rng, big.Cols)).NormalizeRows()
	type step struct{ a, b *CSR }
	steps := []step{{big, big.Transpose()}, {rescaled, big.Transpose()}, {small, small.Transpose()}, {big, rescaled.Transpose()}}
	for i := 0; i < 4; i++ {
		steps = append(steps, step{flow, flow})
		flow = mulTopK(flow, flow, 0, k).NormalizeRows()
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		e, dst := NewExpander(), &CSR{}
		for n, s := range steps {
			want, _ := oracleProduct(t, s.a, s.b, 0, k)
			if _, err := e.MulTopK(context.Background(), dst, s.a, s.b, k, nil); err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("procs=%d/step=%d", procs, n), func(t *testing.T) { requireBitIdentical(t, want, dst) })
		}
	}
}

// sharedSupports returns a rows×n matrix whose rows take their column
// lists from a few shared supports, with values of their own: supports
// held by 1, 2, 7, 8, 9, 17 and 30 rows — a lone row, groups below,
// at and past the width with every remainder from none to one —, one
// support empty, the rows of each interleaved with the others' across
// the whole matrix, so groups gather rows from several tiles. It
// returns how many rows share their support with another row of their
// group.
func sharedSupports(rng *rand.Rand, n int) (*CSR, int64) {
	counts := []int{1, 2, 7, 8, 9, 17, 30, 3}
	var owner []int
	var grouped int64
	for s, c := range counts {
		for range c {
			owner = append(owner, s)
		}
		if rem := c % groupWidth; rem == 1 {
			grouped += int64(c - 1)
		} else {
			grouped += int64(c)
		}
	}
	rng.Shuffle(len(owner), func(i, j int) { owner[i], owner[j] = owner[j], owner[i] })
	supports := make([][]int, len(counts))
	for s := range supports {
		if s == len(counts)-1 {
			continue // the empty support
		}
		supports[s] = rng.Perm(n)[:1+rng.Intn(12)]
	}
	b := NewBuilder(len(owner), n)
	for i, s := range owner {
		for _, c := range supports[s] {
			b.Add(i, c, rng.NormFloat64())
		}
	}
	return b.Build(), grouped
}

// TestGroupedRowsMatchOracle: rows that share their support are expanded
// as groups and get the oracle's bits and kill tally — with and without
// a threshold and a top-k, in every row mode, at every worker count,
// under each dense-scan body — and the row paths count each row of a
// group of two or more once.
func TestGroupedRowsMatchOracle(t *testing.T) {
	eachScanBody(t, testGroupedRowsMatchOracle)
}

func testGroupedRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 300
	a, wantGrouped := sharedSupports(rng, n)
	b := benchGraph(n, 6).ScaleCols(randomScale(rng, n))
	for _, th := range []float64{0, 0.2} {
		for _, k := range []int{0, 7} {
			want, wantKilled := oracleProduct(t, a, b, th, k)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, mode := range []int8{modeDense, modeMarked, modeDerived} {
					t.Run(fmt.Sprintf("th=%v/k=%d/workers=%d/mode=%d", th, k, workers, mode), func(t *testing.T) {
						ws := &workspace{}
						for range workers {
							spa := newAccumulator(n, groupWidth)
							spa.force = mode
							ws.spas = append(ws.spas, spa)
						}
						got := &CSR{}
						tally, err := topKProduct(a, b, th, k).runInto(context.Background(), workers, ws, got)
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, want, got)
						if tally.Killed != wantKilled {
							t.Fatalf("killed %d, want %d", tally.Killed, wantKilled)
						}
						if tally.Grouped != wantGrouped {
							t.Fatalf("%d rows expanded in groups, want %d", tally.Grouped, wantGrouped)
						}
					})
				}
			}
		}
	}
}

// TestMulTopKRejectsAliasedDst: a destination that is an operand, or
// holds an array one of them holds — at any offset within its capacity —
// panics naming the contract instead of overwriting rows not yet read;
// a destination of its own does not.
func TestMulTopKRejectsAliasedDst(t *testing.T) {
	a := benchGraph(90, 3)
	b := a.Transpose()
	for _, tc := range []struct {
		name string
		dst  *CSR
	}{
		{"dst-is-a", a},
		{"dst-is-b", b},
		{"vals-of-a", &CSR{Val: a.Val[:0]}},
		{"cols-inside-b", &CSR{ColIdx: b.ColIdx[5:5]}},
		{"rowptr-of-a-as-rowptr", &CSR{RowPtr: a.RowPtr[10:]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "shares storage") {
					t.Fatalf("recovered %q, want the aliasing panic", r)
				}
			}()
			NewExpander().MulTopK(context.Background(), tc.dst, a, b, 5, nil)
			t.Fatal("MulTopK returned")
		})
	}
	dst := &CSR{ColIdx: make([]int32, 0, 4)}
	if _, err := NewExpander().MulTopK(context.Background(), dst, a, b, 5, nil); err != nil {
		t.Fatal(err)
	}
}
