package matrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"symcluster/internal/obs"
)

// Row modes as the accumulator's test hook names them.
const (
	modeDerived int8 = 0
	modeDense   int8 = 1
	modeMarked  int8 = -1
)

// runForced drives p on workers accumulators held to one row mode and
// returns the (mirrored, if p is) result, the threshold-kill tally and
// how many top-k selections fell back from their hint.
func runForced(t *testing.T, p *product, workers int, mode int8) (out *CSR, killed, fallbacks int64) {
	t.Helper()
	ws := &workspace{}
	for w := 0; w < workers; w++ {
		spa := newAccumulator(p.cols)
		spa.force = mode
		ws.spas = append(ws.spas, spa)
	}
	ctx, stats := obs.WithPruneStats(context.Background())
	out = &CSR{}
	if _, err := p.runInto(ctx, workers, ws, out); err != nil {
		t.Fatal(err)
	}
	if p.mirrored {
		out = MirrorUpper(out)
	}
	_, fallbacks = stats.RowPaths()
	return out, stats.Killed(), fallbacks
}

// oracleProduct is the reference every test here compares against: the
// sequential oracle, then a full sort and truncation of each row.
func oracleProduct(t *testing.T, a, b *CSR, threshold float64, k int) (*CSR, int64) {
	t.Helper()
	ctx, stats := obs.WithPruneStats(context.Background())
	full, err := MulPrunedCtx(ctx, a, b, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return truncateTopK(full, k), stats.Killed()
}

// TestForcedRowModesAgree: the accumulator's two modes are one
// function. The same random product with every row forced dense, every
// row forced marked and every row left to the derived rule gives the
// oracle's bits and the oracle's kill tally — both specs, with and
// without a threshold and a top-k, at every worker count, under each
// dense-scan body.
func TestForcedRowModesAgree(t *testing.T) {
	eachScanBody(t, testForcedRowModesAgree)
}

func testForcedRowModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := benchGraph(540, 6)
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
						t.Run(fmt.Sprintf("%s/th=%v/k=%d/workers=%d/mode=%d", name, th, k, workers, mode), func(t *testing.T) {
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
// straddling the cut (the lower column wins) — in every row mode,
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
// the one-shot, hint-free product every time, at every worker count it
// can derive.
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
			want, err := MulPrunedTopKCtx(context.Background(), s.a, s.b, 0, k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.MulTopK(context.Background(), dst, s.a, s.b, k, nil); err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("procs=%d/step=%d", procs, n), func(t *testing.T) { requireBitIdentical(t, want, dst) })
		}
	}
}
