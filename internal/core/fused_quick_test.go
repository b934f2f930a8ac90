package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// fusedVsReference runs one method through the fused execution layer
// (the production plan table) and through the pre-fusion materialized
// dataflow, requiring bit-identical output.
func fusedVsReference(t *testing.T, a *matrix.CSR, m Method, opt Options) {
	t.Helper()
	want, err := ReferenceSymmetrize(context.Background(), a, m, opt)
	if err != nil {
		t.Fatalf("%v: reference: %v", m, err)
	}
	got, err := symmetrizeAdj(context.Background(), a, m, opt, nil)
	if err != nil {
		t.Fatalf("%v: fused: %v", m, err)
	}
	bitIdentical(t, want, got)
}

// TestQuickFusedMatchesReference is the fusion contract over random
// graphs: for every method, threshold, self-loop setting, and diagonal
// handling, the fused plan/executor path reproduces the materialized
// pre-fusion dataflow bit-for-bit.
func TestQuickFusedMatchesReference(t *testing.T) {
	f := func(g digraphGen, thRaw uint8, selfLoops, keepDiag bool) bool {
		opt := Defaults()
		opt.Threshold = float64(thRaw) / 512 // 0 .. ~0.5
		opt.AddSelfLoops = selfLoops
		opt.DropDiagonal = !keepDiag
		for _, m := range Methods {
			want, err1 := ReferenceSymmetrize(context.Background(), g.A, m, opt)
			got, err2 := symmetrizeAdj(context.Background(), g.A, m, opt, nil)
			if err1 != nil || err2 != nil {
				return false
			}
			if !sameBits(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// mirrorThenSum lowers a plan's product terms in the order runPlan used
// before it summed triangles: each term mirrored to the full matrix, the
// full matrices added, the diagonal dropped from the sum.
func mirrorThenSum(ctx context.Context, a *matrix.CSR, plan *symPlan, opt Options) (*matrix.CSR, error) {
	if plan.addSelfLoops {
		a = a.AddIdentity()
	}
	outDeg, inDeg, at := a.RowCounts(), a.ColCounts(), a.Transpose()
	var u *matrix.CSR
	for _, term := range plan.terms {
		x, xt := a, at
		if term.transposed {
			x, xt = at, a
		}
		p, err := matrix.MulXXTScaledPrunedCtx(ctx, x, xt,
			resolveScale(term.rowScale, outDeg, inDeg), resolveScale(term.colScale, outDeg, inDeg), opt.Threshold, 0)
		if err != nil {
			return nil, err
		}
		if u == nil {
			u = p
		} else {
			u = matrix.Add(u, p, 1, 1)
		}
	}
	if plan.dropDiagonal {
		u = u.DropDiagonal()
	}
	return u, nil
}

// TestQuickSumThenMirrorMatchesMirrorThenSum: adding the terms' upper
// triangles and mirroring the sum once gives the bits, and the prune
// tally, of mirroring each term and adding the full matrices — over
// both product methods, thresholds that kill entries of one term and
// not the other, self-loops, and a kept diagonal.
func TestQuickSumThenMirrorMatchesMirrorThenSum(t *testing.T) {
	f := func(g digraphGen, thRaw uint8, selfLoops, keepDiag bool) bool {
		opt := Defaults()
		opt.Threshold = float64(thRaw) / 512
		opt.AddSelfLoops = selfLoops
		opt.DropDiagonal = !keepDiag
		for _, m := range []Method{Bibliometric, DegreeDiscounted} {
			plan, err := plans[m](opt)
			if err != nil {
				return false
			}
			wctx, wantKilled := obs.WithPruneStats(context.Background())
			want, err1 := mirrorThenSum(wctx, g.A, plan, opt)
			ctx, killed := obs.WithPruneStats(context.Background())
			got, err2 := runPlan(ctx, g.A, plan, opt, nil)
			if err1 != nil || err2 != nil || !sameBits(want, got) || killed.Killed() != wantKilled.Killed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// sameBits is bitIdentical as a predicate for quick.Check.
func sameBits(want, got *matrix.CSR) bool {
	if want.Rows != got.Rows || want.Cols != got.Cols || want.NNZ() != got.NNZ() {
		return false
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			return false
		}
	}
	for k := range want.ColIdx {
		if want.ColIdx[k] != got.ColIdx[k] {
			return false
		}
	}
	for k := range want.Val {
		// NaNs cannot occur (non-negative weights); exact comparison is
		// the bit-identity contract.
		if want.Val[k] != got.Val[k] {
			return false
		}
	}
	return true
}

// TestDerivedWorkersMatchOracle holds both lowerings to the sequential
// oracle at every worker count the engine can derive: all four methods,
// pruned and unpruned, with and without self-loops, in-core and
// out-of-core, are the oracle's bits and the oracle's prune tally.
// GOMAXPROCS is the only knob the worker count has, so the test turns
// that; the graph is hub-heavy and cuts into 8 to 19 tiles. The whole
// matrix runs under each dense-scan body.
func TestDerivedWorkersMatchOracle(t *testing.T) {
	eachScanBody(t, testDerivedWorkersMatchOracle)
}

func testDerivedWorkersMatchOracle(t *testing.T) {
	g := oocTestGraph(t, 1200, 5, 17)
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	for _, m := range Methods {
		for _, th := range []float64{0, 0.01} {
			for _, selfLoops := range []bool{false, true} {
				opt := Defaults()
				opt.Threshold = th
				opt.AddSelfLoops = selfLoops
				wctx, wantKilled := obs.WithPruneStats(context.Background())
				want, err := ReferenceSymmetrize(wctx, g.Adj, m, opt)
				if err != nil {
					t.Fatalf("%v: reference: %v", m, err)
				}
				for _, procs := range []int{1, 2, 3, 8} {
					for _, ooc := range []bool{false, true} {
						t.Run(fmt.Sprintf("%v/thr=%v/selfloops=%v/procs=%d/ooc=%v", m, th, selfLoops, procs, ooc), func(t *testing.T) {
							runtime.GOMAXPROCS(procs)
							ctx, killed := obs.WithPruneStats(context.Background())
							var cfg *OutOfCoreConfig
							if ooc {
								cfg = &OutOfCoreConfig{ScratchDir: t.TempDir()}
							}
							got, err := symmetrizeAdj(ctx, g.Adj, m, opt, cfg)
							if err != nil {
								t.Fatal(err)
							}
							bitIdentical(t, want, got)
							if killed.Killed() != wantKilled.Killed() {
								t.Fatalf("pruned %d entries, oracle %d", killed.Killed(), wantKilled.Killed())
							}
						})
					}
				}
			}
		}
	}
}

// TestFusedMatchesReferenceVariants covers the option corners the
// quick generator leaves fixed: log discounting, asymmetric exponents,
// and kept diagonals under a threshold.
func TestFusedMatchesReferenceVariants(t *testing.T) {
	g := oocTestGraph(t, 300, 6, 23)
	for _, tc := range []struct {
		name string
		m    Method
		opt  func() Options
	}{
		{"dd-log", DegreeDiscounted, func() Options {
			o := Defaults()
			o.AlphaKind, o.BetaKind = LogDiscount, LogDiscount
			return o
		}},
		{"dd-asymmetric", DegreeDiscounted, func() Options {
			o := Defaults()
			o.Alpha, o.Beta = 0.25, 0.75
			o.Threshold = 0.005
			return o
		}},
		{"dd-keep-diag-thr", DegreeDiscounted, func() Options {
			o := Defaults()
			o.DropDiagonal = false
			o.Threshold = 0.01
			return o
		}},
		{"bib-selfloops-thr", Bibliometric, func() Options {
			o := Defaults()
			o.AddSelfLoops = true
			o.Threshold = 0.5
			return o
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fusedVsReference(t, g.Adj, tc.m, tc.opt())
		})
	}
}

// TestOutOfCoreMatchesReference closes the triangle: the out-of-core
// lowering of the shared plan must also be bit-identical to the
// materialized pre-fusion dataflow (TestOutOfCoreBitIdentity covers
// out-of-core vs in-core; this pins both to the reference).
func TestOutOfCoreMatchesReference(t *testing.T) {
	g := oocTestGraph(t, 300, 6, 29)
	for _, tc := range []struct {
		name string
		m    Method
		opt  func() Options
	}{
		{"dd", DegreeDiscounted, Defaults},
		{"dd-thr", DegreeDiscounted, func() Options {
			o := Defaults()
			o.Threshold = 0.01
			return o
		}},
		{"bib-selfloops", Bibliometric, func() Options {
			o := Defaults()
			o.AddSelfLoops = true
			return o
		}},
		{"aat", AAT, Defaults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt()
			want, err := ReferenceSymmetrize(context.Background(), g.Adj, tc.m, opt)
			if err != nil {
				t.Fatal(err)
			}
			ctx := WithOutOfCore(context.Background(), OutOfCoreConfig{ScratchDir: t.TempDir()})
			got, err := SymmetrizeCtx(ctx, g, tc.m, opt)
			if err != nil {
				t.Fatal(err)
			}
			bitIdentical(t, want, got.Adj)
		})
	}
}
