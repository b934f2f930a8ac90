package mcl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"symcluster/internal/checkpoint"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// requireSameMatrix holds got to want: shape, structure and every value's
// bits.
func requireSameMatrix(t *testing.T, what string, want, got *matrix.CSR) {
	t.Helper()
	if !reflect.DeepEqual(want.RowPtr, got.RowPtr) || !reflect.DeepEqual(want.ColIdx, got.ColIdx) ||
		want.Rows != got.Rows || want.Cols != got.Cols || len(want.Val) != len(got.Val) {
		t.Fatalf("%s: structure differs:\n got %v\nwant %v", what, got.ToDense(), want.ToDense())
	}
	for k := range want.Val {
		if math.Float64bits(want.Val[k]) != math.Float64bits(got.Val[k]) {
			t.Fatalf("%s: entry %d = %x, want %x", what, k, math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]))
		}
	}
}

// rawCSR is a matrix with exactly the entries given, stored zeros kept:
// rows[i] maps row i's columns to values.
func rawCSR(n int, rows []map[int]float64) *matrix.CSR {
	m := &matrix.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		for c := 0; c < n; c++ {
			if v, ok := rows[i][c]; ok {
				m.ColIdx = append(m.ColIdx, int32(c))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// TestRegularizerMatchesComposition holds the one-pass regularizer to
// Add(adj, Diagonal(loops)) → Transpose → NormalizeRows by bits, on one
// workspace that goes from large to small and back: rows with a stored
// diagonal, stored zeros, a diagonal that cancels its self-loop to
// exactly zero, empty rows, columns that sum to zero and random signed
// weights.
func TestRegularizerMatchesComposition(t *testing.T) {
	edge := rawCSR(7, []map[int]float64{
		0: {0: 0.5, 1: 2, 3: 0}, // stored diagonal, stored zero
		1: {1: -1, 2: 3},        // −1 + the mean weight 1 cancels to exactly 0
		2: {1: 3, 4: 0},         // stored zero
		3: {},                   // empty: the self-loop alone
		4: {2: 1e-300, 5: 2},    // column 5 is 2 − 2 …
		5: {5: -1, 6: 3},        // … with its diagonal cancelled
		6: {0: 0, 5: -2},        // negative sum: self-loop 1
	})
	ws := newWorkspace()
	check := func(what string, adj *matrix.CSR) {
		t.Helper()
		ws.regularize(adj)
		requireSameMatrix(t, what, regularizer(adj), &ws.mgt)
	}
	check("edge cases", edge)
	// Row c of M_Gᵀ is column c of M_G: the cases above must be there.
	if cols, _ := ws.mgt.Row(1); slices.Contains(cols, 1) {
		t.Fatal("the diagonal that cancels its self-loop is stored")
	}
	if _, vals := ws.mgt.Row(5); len(vals) != 2 || vals[0]+vals[1] != 0 {
		t.Fatalf("column 5 = %v, want the unscaled 2 − 2", vals)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		if trial%10 == 0 {
			n = 200 // grow the workspace past what the small trials used
		}
		rows := make([]map[int]float64, n)
		for i := range rows {
			rows[i] = map[int]float64{}
			for d := rng.Intn(6); d > 0; d-- {
				var v float64
				switch rng.Intn(4) {
				case 0: // a stored zero
				case 1:
					v = -rng.Float64()
				default:
					v = rng.Float64()
				}
				rows[i][rng.Intn(n)] = v
			}
		}
		check(fmt.Sprintf("trial %d (n=%d)", trial, n), rawCSR(n, rows))
	}
	rng = rand.New(rand.NewSource(22))
	blocks, _ := blockGraph(rng, 4, 30, 0.4, 0.02)
	check("block graph", blocks)
}

// solveOutcome is everything a solve leaves that must not depend on the
// workspace it ran in.
type solveOutcome struct {
	res   *Result
	err   error
	flow  *matrix.CSR // the workspace's flow when the solve returned
	spans []map[string]any
}

// solveIn runs one solve in ws under a trace of its own.
func solveIn(ctx context.Context, ws *workspace, adj *matrix.CSR, opt Options) solveOutcome {
	opt.fill()
	trace := obs.NewTrace()
	ctx, root := trace.StartRoot(ctx, "test")
	res, err := ws.cluster(ctx, adj, opt)
	root.End()
	out := solveOutcome{res: res, err: err, flow: ws.flow.Clone()}
	for _, sp := range iterateSpans(trace.Tree()) {
		out.spans = append(out.spans, sp.Attrs)
	}
	return out
}

// TestWorkspaceReuseMatchesFresh runs a sequence of solves that change
// every dimension a workspace is sized by through one workspace, and
// holds each to the same solve in a fresh one: the final flow's bits,
// every mcl.iterate span's attributes, the error and the assignment.
// The sequence grows and shrinks the graph (540 → 60 → 1 200 nodes),
// tightens the column budget (30 → 4), switches R-MCL to MLR-MCL and
// back, cancels a solve mid-run, restores one from a checkpoint, and
// turns GOMAXPROCS between solves.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g540, _ := blockGraph(rng, 9, 60, 0.3, 0.01)
	g60, _ := blockGraph(rng, 3, 20, 0.5, 0.05)
	g1200, _ := blockGraph(rng, 20, 60, 0.15, 0.003)
	rmcl := Options{Inflation: 2, MaxIter: 20, MaxPerColumn: 30, ConvergenceTol: 1e-4}
	top4 := rmcl
	top4.MaxPerColumn = 4
	mlr := Options{Inflation: 1.5, Multilevel: true, CoarsenTo: 300, MaxIter: 15, MaxPerColumn: 30, ConvergenceTol: 1e-3, Seed: 1}

	// A mid-run snapshot of the 540-node solve to restore from.
	rec := newMemSink(1)
	if _, err := ClusterCtx(checkpoint.With(context.Background(), rec), g540, rmcl); err != nil {
		t.Fatal(err)
	}
	cks := rec.saves["mcl"]
	if len(cks) < 4 {
		t.Fatalf("%d checkpoints, want a mid-run one", len(cks))
	}
	restoring := func() context.Context {
		sink := newMemSink(0)
		sink.preload["mcl"] = cks[len(cks)/2]
		return checkpoint.With(context.Background(), sink)
	}
	cancelling := func() context.Context { return &countingCtx{Context: context.Background(), after: 7} }
	background := func() context.Context { return context.Background() }

	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	steps := []struct {
		name  string
		ctx   func() context.Context
		adj   *matrix.CSR
		opt   Options
		procs int // the workers a solve is offered, read afresh by each
	}{
		{"540/top30", background, g540, rmcl, 2},
		{"60/top4", background, g60, top4, 1},
		{"60/top30", background, g60, rmcl, 1}, // a top-4 τ would send rows to the fallback
		{"1200/mlrmcl", background, g1200, mlr, 3},
		{"540/cancelled", cancelling, g540, rmcl, 2},
		{"540/restored", restoring, g540, rmcl, 2},
		{"540/top30 again", background, g540, rmcl, 1},
	}
	reused := newWorkspace()
	for _, s := range steps {
		runtime.GOMAXPROCS(s.procs)
		want := solveIn(s.ctx(), newWorkspace(), s.adj, s.opt)
		got := solveIn(s.ctx(), reused, s.adj, s.opt)
		if !errors.Is(got.err, want.err) {
			t.Fatalf("%s: err = %v, fresh workspace %v", s.name, got.err, want.err)
		}
		if s.name == "540/cancelled" && !errors.Is(got.err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", s.name, got.err)
		}
		if s.name == "540/restored" && got.spans[0]["resume_iter"] != cks[len(cks)/2].iter {
			t.Fatalf("%s: span %v did not resume from iteration %d", s.name, got.spans[0], cks[len(cks)/2].iter)
		}
		requireSameMatrix(t, s.name+": flow", want.flow, got.flow)
		if !reflect.DeepEqual(got.spans, want.spans) {
			t.Fatalf("%s: mcl.iterate spans\n%v\nfresh workspace\n%v", s.name, got.spans, want.spans)
		}
		if want.res != nil && (got.res.Iterations != want.res.Iterations || got.res.K != want.res.K ||
			!equalAssign(got.res.Assign, want.res.Assign)) {
			t.Fatalf("%s: %d iterations / %d clusters, fresh workspace %d / %d (or assignments differ)",
				s.name, got.res.Iterations, got.res.K, want.res.Iterations, want.res.K)
		}
	}
}

// TestConcurrentSolves runs four solves at once, repeatedly, through the
// pool, each on a graph and options of its own, and holds each to the
// same solve run alone. Under -race this is what shows that concurrent
// solves share no buffer.
func TestConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type job struct {
		adj *matrix.CSR
		opt Options
	}
	a, _ := blockGraph(rng, 4, 25, 0.4, 0.02)
	b, _ := blockGraph(rng, 3, 20, 0.5, 0.05)
	c, _ := blockGraph(rng, 5, 30, 0.3, 0.01)
	jobs := []job{
		{a, Options{Inflation: 2, MaxIter: 15}},
		{b, Options{Inflation: 1.5, MaxPerColumn: 4, MaxIter: 15}},
		{c, Options{Inflation: 2, Multilevel: true, CoarsenTo: 40, MaxIter: 15, Seed: 2}},
		{a, Options{Inflation: 3, MaxPerColumn: 10, MaxIter: 15}},
	}
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		res, err := ClusterCtx(context.Background(), j.adj, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, err := ClusterCtx(context.Background(), j.adj, j.opt)
				if err == nil && (res.Iterations != want[i].Iterations || res.K != want[i].K || !equalAssign(res.Assign, want[i].Assign)) {
					err = fmt.Errorf("round %d: %d iterations / %d clusters, alone %d / %d (or assignments differ)",
						round, res.Iterations, res.K, want[i].Iterations, want[i].K)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("solve %d: %v", i, err)
		}
	}
}

// TestWarmSolveAllocations pins what a single-level solve allocates once
// its workspace has grown: its answer and a fixed handful of per-solve
// objects (the iterate span's context and prune tally, the row
// epilogue), whatever the number of iterations. One worker, because a
// spawned expansion worker is a goroutine allocation per product.
func TestWarmSolveAllocations(t *testing.T) {
	orig := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	rng := rand.New(rand.NewSource(25))
	adj, _ := blockGraph(rng, 9, 60, 0.3, 0.01)
	for _, maxIter := range []int{3, 30} {
		opt := Options{Inflation: 2, MaxIter: maxIter, MaxPerColumn: 30, ConvergenceTol: 1e-9}
		opt.fill()
		ws := newWorkspace()
		solve := func() {
			if _, err := ws.cluster(context.Background(), adj, opt); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		if allocs := testing.AllocsPerRun(3, solve); allocs > 10 {
			t.Fatalf("%v allocations for a warm %d-iteration solve, want at most 10", allocs, maxIter)
		}
	}
}

// TestIterateProductOrder pins which product an R-MCL iteration forms.
// KDD'09 writes the update M := Γ(M·M_G): each node's flow column
// becomes the average of its neighbours'. iterate forms F·M_Gᵀ in the
// transposed store, which is (M_G·M)ᵀ: each node's flow column takes
// one more step of the walk on its own. On this graph, from a flow that
// is no power of M_Gᵀ, the two differ, and iterate matches M_G·M.
func TestIterateProductOrder(t *testing.T) {
	adj := matrix.FromDense([][]float64{
		{0, 1, 1, 0, 0},
		{1, 0, 1, 0, 0},
		{1, 1, 0, 2, 0},
		{0, 0, 2, 0, 1},
		{0, 0, 0, 1, 0},
	})
	f0 := [][]float64{ // row j: node j's flow column, stochastic
		{0.5, 0.2, 0.1, 0.1, 0.1},
		{0.1, 0.1, 0.1, 0.2, 0.5},
		{0.3, 0.3, 0.2, 0.1, 0.1},
		{0.05, 0.05, 0.1, 0.4, 0.4},
		{0.6, 0.1, 0.1, 0.1, 0.1},
	}
	ws := newWorkspace()
	ws.regularize(adj)
	mgt := ws.mgt.ToDense()
	ws.flow = matrix.FromDense(f0)
	opt := Options{Inflation: 2, MaxPerColumn: 5}
	opt.fill()
	if _, err := ws.iterate(context.Background(), opt, 1, ""); err != nil {
		t.Fatal(err)
	}
	got := ws.flow.ToDense()

	// step is one dense iteration from the product a·b: square, normalise
	// each row, drop what is below the prune threshold, normalise again.
	step := func(a, b [][]float64) [][]float64 {
		n := len(a)
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, n)
			var sum float64
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					out[i][j] += a[i][k] * b[k][j]
				}
				out[i][j] *= out[i][j]
				sum += out[i][j]
			}
			var kept float64
			for j := range out[i] {
				if out[i][j] /= sum; out[i][j] < pruneThreshold {
					out[i][j] = 0
				}
				kept += out[i][j]
			}
			for j := range out[i] {
				out[i][j] /= kept
			}
		}
		return out
	}
	maxDiff := func(a, b [][]float64) float64 {
		var d float64
		for i := range a {
			for j := range a[i] {
				d = max(d, math.Abs(a[i][j]-b[i][j]))
			}
		}
		return d
	}
	mgM := step(f0, mgt) // F·M_Gᵀ = (M_G·M)ᵀ
	mMg := step(mgt, f0) // M_Gᵀ·F = (M·M_G)ᵀ, KDD'09's order
	if d := maxDiff(mgM, mMg); d < 1e-2 {
		t.Fatalf("the two orders differ by only %v here: the test cannot tell them apart", d)
	}
	if d := maxDiff(got, mgM); d > 1e-12 {
		t.Fatalf("iterate is %v away from M_G·M (%v from M·M_G)", d, maxDiff(got, mMg))
	}
}
