package mcl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"symcluster/internal/checkpoint"
	"symcluster/internal/csr"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
)

// The R-MCL solve as it stood before the expansion was fused into one
// engine pass and the solve into one pooled workspace, kept as the
// reference both are held to: every step is its own materialised pass —
// the regularizer composed from Add, Transpose and NormalizeRows, the
// seed cut by sort.Slice, the projection built by a Builder, and per
// iteration the reference product (matrix.MulPrunedCtx, no engine code)
// cut to the top k by a sort, inflation through math.Pow, a pruning pass
// into a fresh CSR, a normalisation pass, and a residual taken from a
// materialised difference. It shares normalizeRowsInPlace and the
// cluster extraction with mcl.go and nothing with iterate.

// regularizer is M_Gᵀ as the composition regularize is held to.
func regularizer(adj *matrix.CSR) *matrix.CSR {
	n := adj.Rows
	loops := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		cols, vals := adj.Row(i)
		for k := range cols {
			sum += vals[k]
		}
		w := 1.0
		if len(cols) > 0 && sum > 0 {
			w = sum / float64(len(cols))
		}
		loops[i] = w
	}
	a := matrix.Add(adj, matrix.Diagonal(loops), 1, 1)
	// Column-normalise then transpose == transpose then row-normalise.
	return a.Transpose().NormalizeRows()
}

// initialFlow is the seed as seed is held to: the regularizer pruned at
// zero and cut to the budget by prunePerRow, then normalised.
func initialFlow(mgt *matrix.CSR, opt Options) *matrix.CSR {
	f := prunePerRow(mgt, 0, opt.MaxPerColumn)
	normalizeRowsInPlace(f)
	return f
}

// prunePerRow drops entries below threshold and keeps at most maxKeep
// of the heaviest entries per row.
func prunePerRow(m *matrix.CSR, threshold float64, maxKeep int) *matrix.CSR {
	out := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1)}
	type entry struct {
		col int32
		val float64
	}
	var buf []entry
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		buf = buf[:0]
		var best float64
		for k := range cols {
			if vals[k] > best {
				best = vals[k]
			}
		}
		for k, c := range cols {
			// Always keep the row maximum so no column empties out.
			if vals[k] >= threshold || vals[k] == best {
				buf = append(buf, entry{c, vals[k]})
			}
		}
		if len(buf) > maxKeep {
			sort.Slice(buf, func(a, b int) bool { return buf[a].val > buf[b].val })
			buf = buf[:maxKeep]
			sort.Slice(buf, func(a, b int) bool { return buf[a].col < buf[b].col })
		}
		for _, e := range buf {
			out.ColIdx = append(out.ColIdx, e.col)
			out.Val = append(out.Val, e.val)
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// projectFlow is the projection as project is held to, through a
// Builder.
func projectFlow(flow *matrix.CSR, fineToCoarse []int32, fineN int) *matrix.CSR {
	members := make([][]int32, flow.Rows)
	for f, c := range fineToCoarse {
		members[c] = append(members[c], int32(f))
	}
	b := matrix.NewBuilder(fineN, fineN)
	for f := 0; f < fineN; f++ {
		cols, vals := flow.Row(int(fineToCoarse[f]))
		for k, cc := range cols {
			ms := members[cc]
			if len(ms) == 0 {
				continue
			}
			share := vals[k] / float64(len(ms))
			for _, m := range ms {
				b.Add(f, int(m), share)
			}
		}
	}
	out := b.Build()
	normalizeRowsInPlace(out)
	return out
}

// extractClusters is the production extraction on a workspace of its own.
func extractClusters(flow *matrix.CSR) ([]int, int) {
	return new(workspace).extract(flow)
}

// topKRows keeps the k largest magnitudes of each row of m, ties toward
// lower columns, in column order: the cut the engine's selection makes.
// m holds no NaN and no exact zero (the reference product drops both).
func topKRows(m *matrix.CSR, k int) *matrix.CSR {
	out := &matrix.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int64, m.Rows+1)}
	var keep []int
	for i := 0; i < m.Rows; i++ {
		lo, hi := int(m.RowPtr[i]), int(m.RowPtr[i+1])
		keep = keep[:0]
		for p := lo; p < hi; p++ {
			keep = append(keep, p)
		}
		sort.Slice(keep, func(x, y int) bool {
			ax, ay := math.Abs(m.Val[keep[x]]), math.Abs(m.Val[keep[y]])
			return ax > ay || ax == ay && keep[x] < keep[y]
		})
		if len(keep) > k {
			keep = keep[:k]
		}
		sort.Ints(keep)
		for _, p := range keep {
			out.ColIdx = append(out.ColIdx, m.ColIdx[p])
			out.Val = append(out.Val, m.Val[p])
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

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

// oracleIterate is iterate's arithmetic, without span, fault site or
// checkpointing; onIter, when set, sees the flow after every iteration,
// where iterate would offer it to a checkpoint sink, and the solve's
// iteration count, final residual and pruned total — what iterate's
// span reports — are appended to log.solves.
func oracleIterate(ctx context.Context, flow **matrix.CSR, mgt *matrix.CSR, opt Options, maxIter int, log *solveLog, onIter func(it int, flow *matrix.CSR)) (iters int, err error) {
	var solve solveStat
	defer func() {
		solve.iters = iters
		log.solves = append(log.solves, solve)
	}()
	for it := 0; it < maxIter; it++ {
		full, _, err := matrix.MulPrunedCtx(ctx, *flow, mgt, 0)
		if err != nil {
			return it, err
		}
		next := topKRows(full, opt.MaxPerColumn)
		inflateRows(next, opt.Inflation)
		rawNNZ := next.NNZ()
		next = prunePerRow(next, pruneThreshold, opt.MaxPerColumn)
		normalizeRowsInPlace(next)
		delta := oracleFlowChange(*flow, next)
		solve.residual = delta
		solve.pruned += int64(rawNNZ - next.NNZ())
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
// there, only the finest level is offered to log.record.
func oracleCluster(ctx context.Context, adj *matrix.CSR, opt Options, log *solveLog) (*Result, error) {
	opt.fill()
	if !opt.Multilevel || adj.Rows <= opt.CoarsenTo {
		mgt := regularizer(adj)
		flow := initialFlow(mgt, opt)
		iters, err := oracleIterate(ctx, &flow, mgt, opt, opt.MaxIter, log, log.record)
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
	mgt := regularizer(h.Coarsest().Adj)
	flow := initialFlow(mgt, opt)
	if _, err := oracleIterate(ctx, &flow, mgt, opt, opt.MaxIter, log, nil); err != nil {
		return nil, err
	}
	for level := h.Depth() - 1; level > 1; level-- {
		fineAdj := h.Levels[level-1].Adj
		flow = projectFlow(flow, h.Levels[level].Map, fineAdj.Rows)
		mgt = regularizer(fineAdj)
		if _, err := oracleIterate(ctx, &flow, mgt, opt, iterPerLevel, log, nil); err != nil {
			return nil, err
		}
	}
	flow = projectFlow(flow, h.Levels[1].Map, adj.Rows)
	mgt = regularizer(adj)
	iters, err := oracleIterate(ctx, &flow, mgt, opt, opt.MaxIter, log, log.record)
	if err != nil {
		return nil, err
	}
	assign, k := extractClusters(flow)
	return &Result{Assign: assign, K: k, Iterations: iters}, nil
}

// iterRecord is what one finest-level iteration left behind: its flow,
// whose bits pin the iteration's residual and nonzeros.
type iterRecord struct {
	iter int
	flow *matrix.CSR
}

// solveStat is what one solve's "mcl.iterate" span reports: iterations,
// final residual and the entries the prune threshold killed.
type solveStat struct {
	iters    int
	residual float64
	pruned   int64
}

// solveLog collects iterRecords, from oracleIterate's onIter or — as a
// checkpoint sink with interval 1 — from iterate's per-iteration Save,
// and, from the oracle, one solveStat per solve.
type solveLog struct {
	t       *testing.T
	records []iterRecord
	solves  []solveStat
}

func (l *solveLog) record(it int, flow *matrix.CSR) {
	l.records = append(l.records, iterRecord{iter: it, flow: flow.Clone()})
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

// plantedBlocks returns cliques of the given sizes, in row order, joined
// by up to noise random edges between them. Every member of a clique untouched
// by noise has the clique as its regularizer row's support, so flow rows
// share supports from the first iteration on.
func plantedBlocks(rng *rand.Rand, sizes []int, noise int) *matrix.CSR {
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	b := matrix.NewBuilder(n, n)
	lo := 0
	for _, sz := range sizes {
		for i := lo; i < lo+sz; i++ {
			for j := lo; j < lo+sz; j++ {
				if i != j {
					b.Add(i, j, 1)
				}
			}
		}
		lo += sz
	}
	for range noise {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.Add(i, j, 0.5)
			b.Add(j, i, 0.5)
		}
	}
	return b.Build()
}

// TestFusedIterateMatchesOracle holds the fused, tile-parallel solve to
// the materialised one at every worker count the engine can derive:
// after every finest-level iteration the flow is the same bits, every
// solve's span reports the oracle's iteration count, final residual and
// pruned total, and at the end the iteration count and the assignment
// are the same. GOMAXPROCS
// is the only knob the worker count has, so the test turns that.
//
// The oracle's product is the reference one, hint-free and row by row,
// so this is also what holds the Expander's row groups to the lone
// row's bits and its τ pre-filter to exactness where its hints
// are worth least: MLR-MCL changes shape between levels — the multilevel
// solves here must cross at least two level changes — and a top-4 cut
// binds on nearly every row, so a stale τ sends rows back to the full
// scan — on wide that variant must record fallbacks. Every level's span
// must say which paths its rows took and which body scanned the dense
// ones — the whole matrix runs under each body. On blocks, planted
// cliques of 9 to 29 rows whose flow rows share supports from the start
// — more rows than a group holds, with remainders, across tile
// boundaries — every level must report rows expanded in groups.
func TestFusedIterateMatchesOracle(t *testing.T) {
	eachScanBody(t, testFusedIterateMatchesOracle)
}

func testFusedIterateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	wide, _ := blockGraph(rng, 6, 50, 0.3, 0.01)  // five or more tiles
	small, _ := blockGraph(rng, 3, 13, 0.5, 0.05) // less than one tile
	blocks := plantedBlocks(rng, []int{11, 13, 17, 19, 23, 9, 29}, 6)
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })

	type variant struct {
		name       string
		multilevel bool
		topK       int
	}
	for _, g := range []struct {
		name string
		adj  *matrix.CSR
	}{{"wide", wide}, {"small", small}, {"blocks", blocks}} {
		for _, inflation := range []float64{1.5, 2, 3} {
			for _, v := range []variant{{"rmcl", false, 20}, {"rmcl-top4", false, 4}, {"mlrmcl", true, 20}} {
				opt := Options{
					Inflation: inflation, Multilevel: v.multilevel,
					CoarsenTo: g.adj.Rows / 3, MaxIter: 25, MaxPerColumn: v.topK, Seed: 3,
				}
				want := &solveLog{t: t}
				wantRes, err := oracleCluster(context.Background(), g.adj, opt, want)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					t.Run(fmt.Sprintf("%s/r=%v/%s/workers=%d", g.name, inflation, v.name, workers), func(t *testing.T) {
						runtime.GOMAXPROCS(workers)
						got := &solveLog{t: t}
						trace := obs.NewTrace()
						ctx, root := trace.StartRoot(context.Background(), "test")
						ctx = checkpoint.With(ctx, got)
						gotRes, err := ClusterCtx(ctx, g.adj, opt)
						root.End()
						if err != nil {
							t.Fatal(err)
						}
						spans := iterateSpans(trace.Tree())
						if v.multilevel && len(spans) < 3 {
							t.Fatalf("%d mcl.iterate spans, want the coarsest level and at least two level changes", len(spans))
						}
						var allFallbacks int64
						for _, sp := range spans {
							dense, ok1 := sp.Attrs["dense_rows"].(int64)
							fallbacks, ok2 := sp.Attrs["select_fallbacks"].(int64)
							grouped, ok3 := sp.Attrs["grouped_rows"].(int64)
							rows, iters := sp.Attrs["nodes"].(int), sp.Attrs["iterations"].(int)
							if !ok1 || !ok2 || !ok3 || dense < 0 || dense > int64(rows*iters) || fallbacks < 0 || fallbacks > int64(rows*iters) || grouped < 0 || grouped > int64(rows*iters) {
								t.Fatalf("mcl.iterate span attrs %v: dense_rows, select_fallbacks and grouped_rows must count rows of its %d×%d", sp.Attrs, rows, iters)
							}
							if g.name == "blocks" && grouped < 1 {
								t.Fatalf("mcl.iterate span attrs %v: no row of planted cliques was expanded in a group", sp.Attrs)
							}
							if sp.Attrs["scan"] != matrix.ScanBody() {
								t.Fatalf("mcl.iterate span attrs %v: scan must be %q", sp.Attrs, matrix.ScanBody())
							}
							allFallbacks += fallbacks
						}
						// (on small, every row keeps four candidates above half
						// its last cut: no fallback is due there)
						if v.topK == 4 && g.name == "wide" && allFallbacks == 0 {
							t.Fatal("a top-4 cut took no fallback: its stale-τ path went unexercised")
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
						}
						if len(spans) != len(want.solves) {
							t.Fatalf("%d mcl.iterate spans, oracle %d solves", len(spans), len(want.solves))
						}
						for k, w := range want.solves {
							got := solveStat{iters: spans[k].Attrs["iterations"].(int),
								residual: spans[k].Attrs["residual"].(float64), pruned: spans[k].Attrs["pruned_entries"].(int64)}
							if got.iters != w.iters || math.Float64bits(got.residual) != math.Float64bits(w.residual) || got.pruned != w.pruned {
								t.Fatalf("solve %d: span says %+v, oracle %+v", k, got, w)
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
