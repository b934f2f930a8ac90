package pipeline

import (
	"bytes"
	"context"
	"errors"
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
	"symcluster/internal/walk"
)

// smallGraph is a testing/quick generator of small internal/gen graphs:
// the controlled mixture of flow and shared-link clusters (the paper's
// Figure-1 archetype) at 20–70 nodes, and R-MAT at 32 or 64.
type smallGraph struct{ G *graph.Directed }

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
	return reflect.ValueOf(smallGraph{ds.Graph})
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
	_, u, _, err := run.Execute(ctx, g, nil)
	if err != nil {
		t.Fatalf("%s threshold=%v ooc=%v: %v", method, threshold, ooc, err)
	}
	return u.Adj
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
		dir, err := eval.NCutDirected(eg.Adj, assign, tau)
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
	return true
}

// TestQuickRunnerIdentities holds the paper's identities through
// Resolve and Run.Execute, for every registered symmetrization in core
// and out of core: U is symmetric and non-negative; the out-of-core
// placement returns the in-core bits; relabelling the nodes relabels U
// and changes nothing else (Sym(PAPᵀ) = P·Sym(A)·Pᵀ, to summation
// order); a higher prune threshold never keeps more entries; for dd,
// transposing the graph and swapping α with β returns the same bits;
// and, for rw, Gleich's NCut identity (gleichHolds). The generator is
// seeded, so a failure reproduces.
func TestQuickRunnerIdentities(t *testing.T) {
	thresholds := []float64{0, 0.02, 0.1, 0.5, 2}
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
		return gleichHolds(t, g, rand.New(rand.NewSource(permSeed)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// countingSym is dd with a Run that counts its calls, can be made to
// fail, and can end the run's context on its way out.
type countingSym struct {
	Symmetrizer
	runs   int
	fail   error
	cancel context.CancelFunc
}

func (c *countingSym) Run(ctx context.Context, g *graph.Directed, opt SymOptions) (*graph.Undirected, error) {
	c.runs++
	if c.fail != nil {
		return nil, c.fail
	}
	if c.cancel != nil {
		defer c.cancel()
	}
	return c.Symmetrizer.Run(ctx, g, opt)
}

// countingCl is mcl with a Run that counts its calls.
type countingCl struct {
	Clusterer
	runs int
}

func (c *countingCl) Run(ctx context.Context, in Input, opt ClusterOptions) (*Result, error) {
	c.runs++
	return c.Clusterer.Run(ctx, in, opt)
}

// mapMemo is the Memo contract's simplest implementation.
type mapMemo map[string]*graph.Undirected

func (m mapMemo) Lookup(sym Symmetrizer, _ SymOptions) (*graph.Undirected, *multilevel.Memo, bool) {
	u, ok := m[sym.Name()]
	return u, nil, ok
}
func (m mapMemo) Store(sym Symmetrizer, _ SymOptions, u *graph.Undirected) { m[sym.Name()] = u }

// TestExecuteMemoContract: a second Execute over the same memo never
// runs the symmetrizer and says so in its trace; a failed symmetrizer
// stores nothing; a context that ends between the stages never starts
// the clusterer.
func TestExecuteMemoContract(t *testing.T) {
	g := gen.Figure1().Graph
	dd, _ := LookupSymmetrizer("dd")
	mcl, _ := LookupClusterer("mcl")
	newRun := func(sym *countingSym, cl *countingCl) *Run {
		run, err := NewRun(sym, core.Defaults(), cl, ClusterOptions{Seed: 1}, g.N())
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	sym, cl, memo := &countingSym{Symmetrizer: dd}, &countingCl{Clusterer: mcl}, mapMemo{}
	run := newRun(sym, cl)
	first, u1, trace, err := run.Execute(context.Background(), g, memo)
	if err != nil || trace.CacheHit || sym.runs != 1 || len(memo) != 1 {
		t.Fatalf("first run: err=%v hit=%v runs=%d stored=%d", err, trace.CacheHit, sym.runs, len(memo))
	}
	second, u2, trace, err := run.Execute(context.Background(), g, memo)
	if err != nil || !trace.CacheHit || sym.runs != 1 || u2 != u1 || cl.runs != 2 {
		t.Fatalf("second run: err=%v hit=%v sym runs=%d cl runs=%d same U=%v", err, trace.CacheHit, sym.runs, cl.runs, u2 == u1)
	}
	if !reflect.DeepEqual(first, second) || trace.SymmetrizedNNZ != u1.Adj.NNZ() {
		t.Fatalf("memoised run differs: %+v vs %+v, trace %+v", first, second, trace)
	}

	boom := errors.New("boom")
	sym, cl, memo = &countingSym{Symmetrizer: dd, fail: boom}, &countingCl{Clusterer: mcl}, mapMemo{}
	if _, u, _, err := newRun(sym, cl).Execute(context.Background(), g, memo); !errors.Is(err, boom) || u != nil || len(memo) != 0 || cl.runs != 0 {
		t.Fatalf("failed symmetrizer: err=%v u=%v stored=%d cl runs=%d", err, u, len(memo), cl.runs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sym, cl = &countingSym{Symmetrizer: dd, cancel: cancel}, &countingCl{Clusterer: mcl}
	if res, u, _, err := newRun(sym, cl).Execute(ctx, g, nil); !errors.Is(err, context.Canceled) || res != nil || u == nil || cl.runs != 0 {
		t.Fatalf("cancelled between stages: err=%v res=%v u=%v cl runs=%d", err, res, u, cl.runs)
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
	if _, _, _, err := run.Execute(probe, ds.Graph, nil); err != nil {
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
