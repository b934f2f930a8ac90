package mcl

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"symcluster/internal/checkpoint"
	"symcluster/internal/csr"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
)

// The R-MCL iteration as it stood before the expansion was fused into
// one engine pass, kept as the reference the fused loop is held to:
// every step is its own materialised pass — the sequential top-k
// product, inflation through math.Pow, a pruning pass into a fresh CSR,
// a normalisation pass, and a residual taken from a materialised
// difference. It shares prunePerRow and normalizeRowsInPlace with the
// flow seeding in mcl.go and nothing with iterate.

// inflateRows raises entries to the power r and renormalises each row.
func inflateRows(m *matrix.CSR, r float64) {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var sum float64
		for k := lo; k < hi; k++ {
			m.Val[k] = math.Pow(m.Val[k], r)
			sum += m.Val[k]
		}
		if sum > 0 {
			inv := 1 / sum
			for k := lo; k < hi; k++ {
				m.Val[k] *= inv
			}
		}
	}
}

// oracleFlowChange is the residual as a materialised difference.
func oracleFlowChange(a, b *matrix.CSR) float64 {
	diff := matrix.Add(a, b, 1, -1)
	var sum float64
	for _, v := range diff.Val {
		sum += math.Abs(v)
	}
	return sum / float64(a.Rows)
}

// oracleIterate is iterate's arithmetic and its metric observations,
// without span, fault site or checkpointing; onIter sees the flow after
// every iteration, where iterate would offer it to a checkpoint sink.
func oracleIterate(ctx context.Context, flow **matrix.CSR, mgt *matrix.CSR, opt Options, maxIter int, onIter func(it int, flow *matrix.CSR)) (iters int, err error) {
	defer func() { obs.ObserveMCLRun(ctx, iters) }()
	for it := 0; it < maxIter; it++ {
		right := mgt
		if opt.Plain {
			right = *flow
		}
		next, err := matrix.MulPrunedTopKCtx(ctx, *flow, right, 0, opt.MaxPerColumn)
		if err != nil {
			return it, err
		}
		inflateRows(next, opt.Inflation)
		rawNNZ := next.NNZ()
		next = prunePerRow(next, opt.PruneThreshold, opt.MaxPerColumn)
		normalizeRowsInPlace(next)
		delta := oracleFlowChange(*flow, next)
		obs.ObserveMCLIteration(ctx, delta, next.NNZ(), rawNNZ-next.NNZ())
		*flow = next
		if onIter != nil {
			onIter(it+1, next)
		}
		if delta < opt.ConvergenceTol {
			return it + 1, nil
		}
	}
	return maxIter, nil
}

// oracleCluster is ClusterCtx's orchestration over oracleIterate; as
// there, only the finest level is offered to onIter.
func oracleCluster(ctx context.Context, adj *matrix.CSR, opt Options, onIter func(it int, flow *matrix.CSR)) (*Result, error) {
	opt.fill()
	if !opt.Multilevel || adj.Rows <= opt.CoarsenTo {
		mgt := regularizer(adj, opt.SelfLoopWeight)
		flow := initialFlow(mgt, opt)
		iters, err := oracleIterate(ctx, &flow, mgt, opt, opt.MaxIter, onIter)
		if err != nil {
			return nil, err
		}
		assign, k := extractClusters(flow)
		return &Result{Assign: assign, K: k, Iterations: iters}, nil
	}
	h, err := multilevel.CoarsenCtx(ctx, adj, multilevel.Options{MinNodes: opt.CoarsenTo, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	mgt := regularizer(h.Coarsest().Adj, opt.SelfLoopWeight)
	flow := initialFlow(mgt, opt)
	if _, err := oracleIterate(ctx, &flow, mgt, opt, opt.MaxIter, nil); err != nil {
		return nil, err
	}
	for level := h.Depth() - 1; level > 1; level-- {
		fineAdj := h.Levels[level-1].Adj
		flow = projectFlow(flow, h.Levels[level].Map, fineAdj.Rows)
		mgt = regularizer(fineAdj, opt.SelfLoopWeight)
		if _, err := oracleIterate(ctx, &flow, mgt, opt, opt.IterPerLevel, nil); err != nil {
			return nil, err
		}
	}
	flow = projectFlow(flow, h.Levels[1].Map, adj.Rows)
	mgt = regularizer(adj, opt.SelfLoopWeight)
	iters, err := oracleIterate(ctx, &flow, mgt, opt, opt.MaxIter, onIter)
	if err != nil {
		return nil, err
	}
	assign, k := extractClusters(flow)
	return &Result{Assign: assign, K: k, Iterations: iters}, nil
}

// iterRecord is what one finest-level iteration left behind: the flow
// and the cumulative text of the three per-iteration histograms (and
// the run histogram), whose _sum lines carry every digit.
type iterRecord struct {
	iter    int
	flow    *matrix.CSR
	metrics string
}

// solveLog collects iterRecords, from oracleIterate's onIter or — as a
// checkpoint sink with interval 1 — from iterate's per-iteration Save,
// which runs right after the iteration's ObserveMCLIteration.
type solveLog struct {
	t       *testing.T
	reg     *obs.Registry
	records []iterRecord
}

func (l *solveLog) record(it int, flow *matrix.CSR) {
	var buf bytes.Buffer
	l.reg.WriteText(&buf)
	var mcl []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "symcluster_mcl_") { // not the checkpoint families
			mcl = append(mcl, line)
		}
	}
	l.records = append(l.records, iterRecord{iter: it, flow: flow.Clone(), metrics: strings.Join(mcl, "\n")})
}

func (l *solveLog) Interval() int                      { return 1 }
func (l *solveLog) Restore(string) (int, []byte, bool) { return 0, nil, false }
func (l *solveLog) Save(_ string, it int, b []byte) error {
	flow, err := csr.Decode(b)
	if err != nil {
		l.t.Errorf("iteration %d: checkpoint does not decode: %v", it, err)
		return nil
	}
	l.record(it, flow)
	return nil
}

func requireSameFlow(t *testing.T, it int, want, got *matrix.CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols || want.NNZ() != got.NNZ() {
		t.Fatalf("iteration %d: flow %dx%d/%d nnz, oracle %dx%d/%d", it,
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for i := 0; i <= want.Rows; i++ {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("iteration %d: RowPtr[%d] = %d, oracle %d", it, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Val {
		if want.ColIdx[k] != got.ColIdx[k] || math.Float64bits(want.Val[k]) != math.Float64bits(got.Val[k]) {
			t.Fatalf("iteration %d: entry %d = (%d, %x), oracle (%d, %x)", it, k,
				got.ColIdx[k], math.Float64bits(got.Val[k]), want.ColIdx[k], math.Float64bits(want.Val[k]))
		}
	}
}

// iterateSpans returns the "mcl.iterate" spans of a traced solve, in the
// order the levels ran.
func iterateSpans(n *obs.SpanNode) []*obs.SpanNode {
	if n == nil {
		return nil
	}
	var out []*obs.SpanNode
	if n.Name == "mcl.iterate" {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, iterateSpans(c)...)
	}
	return out
}

// TestFusedIterateMatchesOracle holds the fused, tile-parallel solve to
// the materialised one at every worker count the engine can derive:
// after every finest-level iteration the flow is the same bits and the
// residual, flow-nnz and pruned-entries histograms read the same, and
// at the end so do the iteration count and the assignment. GOMAXPROCS
// is the only knob the worker count has, so the test turns that.
//
// The oracle's product is the one-shot, hint-free one, so this is also
// what holds the Expander's τ pre-filter to exactness where its hints
// are worth least: plain MCL squares the flow, so a row's cut was taken
// against a right operand that has since moved, and MLR-MCL changes
// shape between levels — the multilevel solves here must cross at least
// two level changes, and every level's span must say which paths its
// rows took and which body scanned the dense ones — the whole matrix
// runs under each body.
func TestFusedIterateMatchesOracle(t *testing.T) {
	eachScanBody(t, testFusedIterateMatchesOracle)
}

func testFusedIterateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	wide, _ := blockGraph(rng, 6, 50, 0.3, 0.01)  // five or more tiles
	small, _ := blockGraph(rng, 3, 13, 0.5, 0.05) // less than one tile
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })

	type variant struct {
		name              string
		plain, multilevel bool
	}
	for _, g := range []struct {
		name string
		adj  *matrix.CSR
	}{{"wide", wide}, {"small", small}} {
		for _, inflation := range []float64{1.5, 2, 3} {
			for _, v := range []variant{{"rmcl", false, false}, {"plain", true, false}, {"mlrmcl", false, true}} {
				opt := Options{
					Inflation: inflation, Plain: v.plain, Multilevel: v.multilevel,
					CoarsenTo: g.adj.Rows / 3, MaxIter: 25, MaxPerColumn: 20, Seed: 3,
				}
				want := &solveLog{t: t, reg: obs.NewRegistry()}
				wantRes, err := oracleCluster(obs.WithMeter(context.Background(), want.reg), g.adj, opt, want.record)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					t.Run(fmt.Sprintf("%s/r=%v/%s/workers=%d", g.name, inflation, v.name, workers), func(t *testing.T) {
						runtime.GOMAXPROCS(workers)
						got := &solveLog{t: t, reg: obs.NewRegistry()}
						trace := obs.NewTrace()
						ctx, root := trace.StartRoot(context.Background(), "test")
						ctx = checkpoint.With(obs.WithMeter(ctx, got.reg), got)
						gotRes, err := ClusterCtx(ctx, g.adj, opt)
						root.End()
						if err != nil {
							t.Fatal(err)
						}
						spans := iterateSpans(trace.Tree())
						if v.multilevel && len(spans) < 3 {
							t.Fatalf("%d mcl.iterate spans, want the coarsest level and at least two level changes", len(spans))
						}
						for _, sp := range spans {
							dense, ok1 := sp.Attrs["dense_rows"].(int64)
							fallbacks, ok2 := sp.Attrs["select_fallbacks"].(int64)
							rows, iters := sp.Attrs["nodes"].(int), sp.Attrs["iterations"].(int)
							if !ok1 || !ok2 || dense < 0 || dense > int64(rows*iters) || fallbacks < 0 || fallbacks > int64(rows*iters) {
								t.Fatalf("mcl.iterate span attrs %v: dense_rows and select_fallbacks must count rows of its %d×%d", sp.Attrs, rows, iters)
							}
							if sp.Attrs["scan"] != matrix.ScanBody() {
								t.Fatalf("mcl.iterate span attrs %v: scan must be %q", sp.Attrs, matrix.ScanBody())
							}
						}
						if len(got.records) != len(want.records) {
							t.Fatalf("%d finest-level iterations, oracle %d", len(got.records), len(want.records))
						}
						for k, w := range want.records {
							g := got.records[k]
							if g.iter != w.iter {
								t.Fatalf("record %d is iteration %d, oracle %d", k, g.iter, w.iter)
							}
							requireSameFlow(t, w.iter, w.flow, g.flow)
							if g.metrics != w.metrics {
								t.Fatalf("iteration %d: metrics differ\n--- fused\n%s\n--- oracle\n%s", w.iter, g.metrics, w.metrics)
							}
						}
						if gotRes.Iterations != wantRes.Iterations || gotRes.K != wantRes.K || !equalAssign(gotRes.Assign, wantRes.Assign) {
							t.Fatalf("result %d iterations / %d clusters, oracle %d / %d (or assignments differ)",
								gotRes.Iterations, gotRes.K, wantRes.Iterations, wantRes.K)
						}
					})
				}
			}
		}
	}
}

// TestFlowChangeMatchesMaterialisedDifference: the merge residual and
// the Add-based one are the same bits, including on rows present in
// only one operand and entries that cancel exactly.
func TestFlowChangeMatchesMaterialisedDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		a, b := randomFlow(rng, 40), randomFlow(rng, 40)
		if trial%5 == 0 {
			b = a.Clone()
		}
		want, got := oracleFlowChange(a, b), flowChange(a, b)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: flowChange = %x, materialised %x", trial, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func randomFlow(rng *rand.Rand, n int) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for d := rng.Intn(8); d > 0; d-- { // some rows stay empty
			b.Add(i, rng.Intn(n), rng.Float64())
		}
	}
	return b.Build()
}

// TestInflateIsPow: the r == 2 shortcut is math.Pow's bits on every
// input, subnormal squares included.
func TestInflateIsPow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	vals := []float64{0x1p-511, 0x1.fffffffffffffp-512, 0x1.7p-520, 3e-162, 5e-324, 0, 1, 0.1, 1e300, math.Inf(1), math.NaN()}
	for i := 0; i < 5000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		if got, want := inflate(v, 2), math.Pow(v, 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("inflate(%x, 2) = %x, math.Pow %x", math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
		}
	}
}
