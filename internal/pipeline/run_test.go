package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
	"symcluster/internal/walk"
)

// smallGraph is a testing/quick generator of small internal/gen graphs:
// the controlled mixture of flow and shared-link clusters (the paper's
// Figure-1 archetype) at 20–70 nodes, and R-MAT at 32 or 64. K is the
// mixture's planted cluster count (0 for R-MAT, which plants none).
type smallGraph struct {
	G *graph.Directed
	K int
}

func (smallGraph) Generate(r *rand.Rand, _ int) reflect.Value {
	var ds *gen.Dataset
	var err error
	if r.Intn(3) == 0 {
		ds, err = gen.Kronecker(gen.KroneckerOptions{Scale: 5 + r.Intn(2), EdgeFactor: 3 + r.Intn(3), Seed: r.Int63()})
	} else {
		ds, err = gen.Controlled(gen.ControlledOptions{
			Clusters:          2 + r.Intn(4),
			MembersPerCluster: 4 + r.Intn(6),
			AnchorsPerCluster: 2,
			NoiseEdges:        1 + r.Intn(20),
			Seed:              r.Int63(),
		}.WithSharedFraction(r.Float64()))
	}
	if err != nil {
		panic(err)
	}
	sg := smallGraph{G: ds.Graph}
	if ds.Truth != nil {
		sg.K = ds.Truth.K
	}
	return reflect.ValueOf(sg)
}

// symmetrizeVia returns the symmetrized graph the one runner produces
// for method at threshold, in core or out of core.
func symmetrizeVia(t *testing.T, g *graph.Directed, method string, threshold float64, ooc bool) *matrix.CSR {
	t.Helper()
	return symmetrizeReq(t, g, Request{Method: method, Threshold: threshold}, ooc)
}

// symmetrizeReq is symmetrizeVia for a request that sets more than the
// method and the threshold (dd's exponents).
func symmetrizeReq(t *testing.T, g *graph.Directed, req Request, ooc bool) *matrix.CSR {
	t.Helper()
	method, threshold := req.Method, req.Threshold
	req.Algorithm, req.Seed = "mcl", 1
	run, err := Resolve(req, g.N())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if ooc {
		ctx = core.WithOutOfCore(ctx, core.OutOfCoreConfig{ScratchDir: t.TempDir()})
	}
	_, u, err := run.Execute(ctx, g, nil)
	if err != nil {
		t.Fatalf("%s threshold=%v ooc=%v: %v", method, threshold, ooc, err)
	}
	return u.Adj
}

// clusterVia returns the assignment the one runner produces for method
// then algo at k, in core or out of core.
func clusterVia(t *testing.T, g *graph.Directed, method, algo string, k int, ooc bool) []int {
	t.Helper()
	run, err := Resolve(Request{Method: method, Algorithm: algo, K: k, Seed: 1}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if ooc {
		ctx = core.WithOutOfCore(ctx, core.OutOfCoreConfig{ScratchDir: t.TempDir()})
	}
	res, _, err := run.Execute(ctx, g, nil)
	if err != nil {
		t.Fatalf("%s/%s ooc=%v: %v", method, algo, ooc, err)
	}
	return res.Assign
}

// permutationBars is, per clusterer, the mean ARI a run on PAPᵀ must
// keep against the run on A (relabelled back) over the planted graphs
// of TestQuickRunnerIdentities. None is exactly invariant, because every
// one breaks ties or draws random choices by node index:
//   - mcl keeps the heaviest flow entries and picks attractors by column
//     order among equal values — measured mean 0.994, exact but for bib,
//     whose integer shared-link counts tie;
//   - the spectral three seed Lanczos' start vector and k-means++ with
//     draws indexed by node — measured 0.86–0.93;
//   - metis matches, grows regions and refines in index-drawn order —
//     measured 0.80;
//   - graclus, below its 256-node coarsening floor, is one region-growing
//     base clustering from index-drawn seeds plus boundary refinement —
//     measured 0.59.
var permutationBars = map[string]float64{
	"mcl": 0.95, "spectral": 0.75, "bestwcut": 0.75, "zhou": 0.75, "metis": 0.7, "graclus": 0.4,
}

// permuted returns PAPᵀ: node i of g becomes node p[i].
func permuted(t *testing.T, g *graph.Directed, p []int) *graph.Directed {
	t.Helper()
	b := matrix.NewBuilder(g.N(), g.N())
	for i := 0; i < g.N(); i++ {
		cols, vals := g.Adj.Row(i)
		for k, j := range cols {
			b.Add(p[i], p[int(j)], vals[k])
		}
	}
	pg, err := graph.NewDirected(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// gleichHolds checks Gleich's result (PAPER.md §1) end to end: the
// undirected NCut of a bipartition (S, S̄) of the runner's rw graph G_U is
// the directed NCut of the same bipartition of G — on g made ergodic by
// a Hamiltonian cycle and one self-loop, so that no node dangles and the
// chain is irreducible and aperiodic, as core's
// TestRandomWalkNCutEquivalence constructs it to show the identity
// exact. Exact needs π stationary under P; the runner's π is stationary
// under the chain teleported with τ = walk.DefaultTeleport, which leaves
// a net flow δ = out(S) − in(S) = τ·(|S|/n − vol_U(S)) / (1 − τ/2) across
// the cut (vol_U(S) = π(S) − δ/2), and writing both scores over π(S),
// out(S) and δ gives |NCut_U − NCut_dir| ≤ |δ| / (2·min(vol_U(S),
// vol_U(S̄))). That bound is the tolerance, plus 1e-8 for the 1e-10 the
// power iteration stops at (measured gaps 4e-6 to 5e-4 against bounds
// of 3e-4 to 2e-2: the two sides' terms mostly cancel) — and with δ put
// back into the undirected score the two agree to that 1e-8 alone.
func gleichHolds(t *testing.T, g *graph.Directed, rng *rand.Rand) bool {
	t.Helper()
	n := g.N()
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, 1)
	}
	b.Add(0, 0, 1)
	eg, err := graph.NewDirected(matrix.Add(g.Adj, b.Build(), 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	u := symmetrizeVia(t, eg, "rw", 0, false)
	deg := u.RowSums()
	const tau = walk.DefaultTeleport
	for trial := 0; trial < 8; trial++ {
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(2)
		}
		in := rng.Intn(n) // neither side empty
		assign[in], assign[(in+1+rng.Intn(n-1))%n] = 1, 0
		var size, volS, volBar float64
		for i, c := range assign {
			if c == 1 {
				size++
				volS += deg[i]
			} else {
				volBar += deg[i]
			}
		}
		und, err := eval.NCut(u, assign)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := eval.NCutDirected(context.Background(), eg.Adj, assign, tau)
		if err != nil {
			t.Fatal(err)
		}
		delta := tau * (size/float64(n) - volS) / (1 - tau/2)
		tol := math.Abs(delta)/(2*math.Min(volS, volBar)) + 1e-8
		// And the teleport is all of the gap: with δ put back — the cut's
		// weight m in G_U is the mean of the two flows — the scores agree.
		m := und / (1/volS + 1/volBar)
		exact := (m+delta/2)/(volS+delta/2) + (m-delta/2)/(volBar-delta/2)
		if math.Abs(und-dir) > tol || math.Abs(exact-dir) > 1e-8 {
			t.Errorf("rw: NCut(G_U)=%v, NCut_dir(G)=%v: apart by %v, the teleport allows %v; corrected for it, by %v (|S|=%v of %d, vol_U(S)=%v)",
				und, dir, math.Abs(und-dir), tol, math.Abs(exact-dir), size, n, volS)
			return false
		}
	}
	return dirichletHolds(t, eg.Adj, u, rng)
}

// dirichletHolds checks Gleich's identity for every k at once, as the
// generalized Dirichlet energy of Sevi et al. (PAPERS.md): for the
// runner's rw graph U of the ergodic a, with D the row sums of U, every
// x has xᵀ(D − U)x = ½ Σ π_i P_ij (x_i − x_j)², P and π computed here from
// a — the quantity a k-way NCut sums over its cluster indicators. The
// two sides are equal in exact arithmetic (U's diagonal, a's self-loop,
// cancels), so they agree to rounding: 1e-10 of the magnitudes summed.
// That D is π is stationarity, which the teleport bends as gleichHolds
// says: πᵀP = (π − τ/n)/(1 − τ), so d_i = π_i + τ(π_i − 1/n)/(2(1 − τ)).
// That shift bounds |d_i − π_i|, and with it put back the two agree to
// 1e-8, for the 1e-10 the power iteration stops at.
func dirichletHolds(t *testing.T, a, u *matrix.CSR, rng *rand.Rand) bool {
	t.Helper()
	const tau = walk.DefaultTeleport
	n := a.Rows
	p := walk.TransitionMatrix(a)
	pi, err := walk.StationaryDistributionCtx(context.Background(), p, walk.Options{Teleport: tau})
	if err != nil {
		t.Fatal(err)
	}
	d := u.RowSums()
	for i := range d {
		shift := tau * (pi[i] - 1/float64(n)) / (2 * (1 - tau))
		if math.Abs(d[i]-pi[i]) > math.Abs(shift)+1e-8 || math.Abs(d[i]-pi[i]-shift) > 1e-8 {
			t.Errorf("rw: row sum d[%d]=%v, π=%v: apart by %v, the teleport allows %v", i, d[i], pi[i], d[i]-pi[i], shift)
			return false
		}
	}
	for trial := 0; trial < 8; trial++ {
		x := make([]float64, n)
		for i := range x {
			if trial%2 == 0 {
				x[i] = rng.NormFloat64()
			} else {
				x[i] = float64(rng.Intn(2 + trial)) // a k-way labelling
			}
		}
		var lhs, scale, energy float64
		for i := 0; i < n; i++ {
			lhs += d[i] * x[i] * x[i]
			scale += d[i] * x[i] * x[i]
			cols, vals := u.Row(i)
			for k, j := range cols {
				lhs -= vals[k] * x[i] * x[j]
				scale += math.Abs(vals[k] * x[i] * x[j])
			}
			cols, vals = p.Row(i)
			for k, j := range cols {
				energy += pi[i] * vals[k] * (x[i] - x[j]) * (x[i] - x[j]) / 2
			}
		}
		if math.Abs(lhs-energy) > 1e-10*scale {
			t.Errorf("rw: xᵀ(D − U)x = %v, ½ Σ π_i P_ij (x_i − x_j)² = %v: apart by %v of %v", lhs, energy, math.Abs(lhs-energy), scale)
			return false
		}
	}
	return true
}

// TestQuickRunnerIdentities holds the paper's identities through
// Resolve and Run.Execute, for every registered symmetrization in core
// and out of core: U is symmetric and non-negative; the out-of-core
// placement returns the in-core bits; relabelling the nodes relabels U
// and changes nothing else (Sym(PAPᵀ) = P·Sym(A)·Pᵀ, to summation
// order); a higher prune threshold never keeps more entries; for dd,
// transposing the graph and swapping α with β returns the same bits;
// for rw, Gleich's NCut identity (gleichHolds) and its k-way form as a
// Dirichlet energy (dirichletHolds); and, for every clusterer
// after every symmetrization on the graphs that plant clusters, the
// out-of-core run assigns exactly as the in-core one and relabelling
// the nodes relabels the assignment — on average over the sample, to
// the ARI permutationBars states, since every clusterer's tie-breaks
// depend on the node index. The generator is seeded, so a failure
// reproduces.
func TestQuickRunnerIdentities(t *testing.T) {
	thresholds := []float64{0, 0.02, 0.1, 0.5, 2}
	agree, runs := map[string]float64{}, map[string]int{}
	check := func(sg smallGraph, permSeed int64) bool {
		g := sg.G
		p := rand.New(rand.NewSource(permSeed)).Perm(g.N())
		pg := permuted(t, g, p)
		for _, method := range MethodNames() {
			in := symmetrizeVia(t, g, method, 0, false)
			for i := 0; i < in.Rows; i++ {
				cols, vals := in.Row(i)
				for k, j := range cols {
					if vals[k] < 0 || in.At(int(j), i) != vals[k] {
						t.Errorf("%s: U[%d,%d]=%v, U[%d,%d]=%v", method, i, j, vals[k], j, i, in.At(int(j), i))
						return false
					}
				}
			}
			if out := symmetrizeVia(t, g, method, 0, true); !reflect.DeepEqual(in, out) {
				t.Errorf("%s: out-of-core differs from in-core", method)
				return false
			}
			pu := symmetrizeVia(t, pg, method, 0, false)
			if pu.NNZ() != in.NNZ() {
				t.Errorf("%s: permuted nnz %d, want %d", method, pu.NNZ(), in.NNZ())
				return false
			}
			for i := 0; i < in.Rows; i++ {
				cols, vals := in.Row(i)
				for k, j := range cols {
					if got := pu.At(p[i], p[int(j)]); math.Abs(got-vals[k]) > 1e-12*math.Abs(vals[k]) {
						t.Errorf("%s: Sym(PAPᵀ)[%d,%d]=%v, Sym(A)[%d,%d]=%v", method, p[i], p[int(j)], got, i, j, vals[k])
						return false
					}
				}
			}
			for _, ooc := range []bool{false, true} {
				prev := in.NNZ()
				for _, th := range thresholds[1:] {
					nnz := symmetrizeVia(t, g, method, th, ooc).NNZ()
					if nnz > prev {
						t.Errorf("%s ooc=%v: nnz %d at threshold %v, %d below it", method, ooc, nnz, th, prev)
						return false
					}
					prev = nnz
				}
			}
		}
		// dd duality, U_d(A; α, β) = U_d(Aᵀ; β, α), bitwise: transposing
		// swaps D_o with D_i, so with the exponents swapped as well each
		// term of one side is the other term of the other side — the same
		// factors multiplied and pruned in the same order — and the two
		// terms only trade places in matrix.Add, whose a + b is b + a.
		r := rand.New(rand.NewSource(permSeed))
		alpha, beta := 0.1+0.8*r.Float64(), 0.1+0.8*r.Float64()
		gt, err := graph.NewDirected(g.Adj.Transpose(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ooc := range []bool{false, true} {
			for _, th := range thresholds[:3] {
				u := symmetrizeReq(t, g, Request{Method: "dd", Threshold: th, Alpha: &alpha, Beta: &beta}, ooc)
				ut := symmetrizeReq(t, gt, Request{Method: "dd", Threshold: th, Alpha: &beta, Beta: &alpha}, ooc)
				if !reflect.DeepEqual(u, ut) {
					t.Errorf("dd ooc=%v threshold=%v: U_d(A; %v, %v) != U_d(Aᵀ; %v, %v)", ooc, th, alpha, beta, beta, alpha)
					return false
				}
			}
		}
		for _, algo := range AlgorithmNames() {
			for _, method := range MethodNames() {
				if sg.K == 0 {
					break // R-MAT plants no clusters to agree on
				}
				a := clusterVia(t, g, method, algo, sg.K, false)
				if b := clusterVia(t, g, method, algo, sg.K, true); !reflect.DeepEqual(a, b) {
					t.Errorf("%s/%s: out-of-core assignment differs from in-core", method, algo)
					return false
				}
				pa := clusterVia(t, pg, method, algo, sg.K, false)
				back := make([]int, len(a))
				for i := range back {
					back[i] = pa[p[i]]
				}
				ari, err := eval.ARI(a, back)
				if err != nil {
					t.Fatal(err)
				}
				agree[algo] += ari
				runs[algo]++
			}
		}
		return gleichHolds(t, g, rand.New(rand.NewSource(permSeed)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range AlgorithmNames() {
		if mean := agree[algo] / float64(runs[algo]); runs[algo] == 0 || mean < permutationBars[algo] {
			t.Errorf("%s: mean ARI %.3f over %d permuted runs, want at least %v", algo, mean, runs[algo], permutationBars[algo])
		} else {
			t.Logf("%s: mean ARI %.3f over %d permuted runs (bar %v)", algo, mean, runs[algo], permutationBars[algo])
		}
	}
}

// mapMemo is the Memo contract's simplest implementation. A non-nil
// onStore runs after every Store.
type mapMemo struct {
	m       map[string]*graph.Undirected
	onStore func()
}

func (m mapMemo) Lookup(sym *Symmetrizer, _ SymOptions) (*graph.Undirected, *multilevel.Memo, bool) {
	u, ok := m.m[sym.Name]
	return u, nil, ok
}

func (m mapMemo) Store(sym *Symmetrizer, _ SymOptions, u *graph.Undirected) {
	m.m[sym.Name] = u
	if m.onStore != nil {
		m.onStore()
	}
}

// TestExecuteMemoContract: a second Execute over the same memo never
// runs the symmetrizer and says so in its trace; a failed symmetrizer
// stores nothing; a context that ends between the stages never starts
// the clusterer. The symmetrizer ran when the stage span holds the
// kernel's core.symmetrize span; the clusterer's runs are counted by a
// copy of the mcl entry.
func TestExecuteMemoContract(t *testing.T) {
	g := gen.Figure1().Graph
	dd, _ := LookupSymmetrizer("dd")
	mcl, _ := LookupClusterer("mcl")
	counted, clRuns := *mcl, 0
	counted.run = func(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
		clRuns++
		return mcl.run(ctx, in, opt)
	}
	run, err := NewRun(dd, core.Defaults(), &counted, ClusterOptions{Seed: 1}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	symSpan := func(tree *obs.SpanNode) *obs.SpanNode { return tree.Child("symmetrize") }
	ran := func(tree *obs.SpanNode) bool { return symSpan(tree).Child("core.symmetrize") != nil }

	memo := mapMemo{m: map[string]*graph.Undirected{}}
	first, u1, tree, err := tracedExecute(run, g, memo)
	if err != nil || symSpan(tree).Attrs["cache_hit"] != false || !ran(tree) || len(memo.m) != 1 || clRuns != 1 {
		t.Fatalf("first run: err=%v tree=%+v stored=%d cl runs=%d", err, tree, len(memo.m), clRuns)
	}
	second, u2, tree, err := tracedExecute(run, g, memo)
	if err != nil || symSpan(tree).Attrs["cache_hit"] != true || ran(tree) || u2 != u1 || clRuns != 2 {
		t.Fatalf("second run: err=%v tree=%+v cl runs=%d same U=%v", err, tree, clRuns, u2 == u1)
	}
	if nnz, _ := symSpan(tree).Number("nnz"); !reflect.DeepEqual(first, second) || int(nnz) != u1.Adj.NNZ() {
		t.Fatalf("memoised run differs: %+v vs %+v, nnz %v", first, second, nnz)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	memo, clRuns = mapMemo{m: map[string]*graph.Undirected{}}, 0
	if _, u, err := run.Execute(ctx, g, memo); !errors.Is(err, context.Canceled) || u != nil || len(memo.m) != 0 || clRuns != 0 {
		t.Fatalf("failed symmetrizer: err=%v u=%v stored=%d cl runs=%d", err, u, len(memo.m), clRuns)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	memo = mapMemo{m: map[string]*graph.Undirected{}, onStore: cancel}
	if res, u, err := run.Execute(ctx, g, memo); !errors.Is(err, context.Canceled) || res != nil || u == nil || clRuns != 0 {
		t.Fatalf("cancelled between stages: err=%v res=%v u=%v cl runs=%d", err, res, u, clRuns)
	}
}

// TestOverflowedWeightsNeverPanic: edge weights the reader accepts but
// whose sums overflow to +Inf — one reciprocal pair at 1e308, and 3- and
// 5-node chains of them — run through every method × every clusterer
// that takes k × every k end in a result or an error, never a panic
// (which the daemon's pool turns into a 500). Metis used to keep a trial
// bisection only when its cut was below +Inf, and index a nil split when
// every cut overflowed.
func TestOverflowedWeightsNeverPanic(t *testing.T) {
	chain := func(n int) string {
		var b strings.Builder
		for i := 0; i+1 < n; i++ {
			fmt.Fprintf(&b, "%d %d 1e308\n%d %d 1e308\n", i, i+1, i+1, i)
		}
		return b.String()
	}
	for _, edges := range []string{chain(2), chain(3), chain(5)} {
		g, err := graph.ReadEdgeList(strings.NewReader(edges))
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range symRegistry {
			for _, cl := range cluRegistry {
				if !cl.RequiresK {
					continue
				}
				for k := 1; k <= g.N(); k++ {
					run, err := NewRun(sym, core.Defaults(), cl, ClusterOptions{TargetClusters: k, Seed: 1}, g.N())
					if err != nil {
						t.Fatal(err)
					}
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Errorf("%d nodes, %s/%s k=%d: panic: %v", g.N(), sym.Name, cl.Name, k, p)
							}
						}()
						run.Execute(context.Background(), g, nil)
					}()
				}
			}
		}
	}
}

// labelProbe is a context that records, every time a goroutine other
// than the one running Execute asks it for Err — the engine's spawned
// product workers do, once a tile — the pprof labels that goroutine
// carries, read the only way the runtime offers: its own record in the
// goroutine profile.
type labelProbe struct {
	context.Context
	mu     sync.Mutex
	labels map[string]bool
}

func (p *labelProbe) Err() error {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		panic(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "(*labelProbe).Err") || strings.Contains(rec, "(*Run).Execute") {
			continue
		}
		line := "no labels"
		if _, after, ok := strings.Cut(rec, "# labels: "); ok {
			line, _, _ = strings.Cut(after, "\n")
		}
		p.labels[line] = true
	}
	return nil
}

// TestExecuteLabelsStageGoroutines: for the length of each stage the
// goroutine running Execute carries the pprof labels stage and name, a
// product worker spawned underneath sees both, and they are gone when
// Execute returns — so a CPU profile decomposes by stage and method.
func TestExecuteLabelsStageGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two or more tiles get two workers
	ds, err := gen.Kronecker(gen.KroneckerOptions{Scale: 8, EdgeFactor: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Resolve(Request{Method: "dd", Algorithm: "mcl", Seed: 1}, ds.Graph.N())
	if err != nil {
		t.Fatal(err)
	}
	probe := &labelProbe{Context: context.Background(), labels: map[string]bool{}}
	if _, _, err := run.Execute(probe, ds.Graph, nil); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		`{"name":"dd", "stage":"symmetrize"}`: true,
		`{"name":"mcl", "stage":"cluster"}`:   true,
	}
	if !reflect.DeepEqual(probe.labels, want) {
		t.Fatalf("spawned product workers carried %v, want %v", probe.labels, want)
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(rec, "TestExecuteLabelsStageGoroutines") && strings.Contains(rec, "# labels:") {
			t.Fatalf("labels outlived Execute:\n%s", rec)
		}
	}
}
