package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"symcluster/internal/graph"
	"symcluster/internal/matrix"
	"symcluster/internal/walk"
)

// symmetrizeAdj runs one method on a bare adjacency through the plan
// table and the executor — what SymmetrizeCtx does inside its span —
// out of core when cfg is non-nil.
func symmetrizeAdj(ctx context.Context, a *matrix.CSR, m Method, opt Options, cfg *OutOfCoreConfig) (*matrix.CSR, error) {
	plan, err := plans[m](opt)
	if err != nil {
		return nil, err
	}
	var s *oocState
	if cfg != nil {
		if s, err = newOOCState(ctx, a, cfg); err != nil {
			return nil, err
		}
		defer s.close()
		a = s.a
	}
	return runPlan(ctx, a, plan, opt, s)
}

// Context-free in-core spellings of the per-method kernels for the
// tests below.
func symmetrizeAAT(a *matrix.CSR) *matrix.CSR {
	u, _ := symmetrizeAdj(context.Background(), a, AAT, Options{}, nil)
	return u
}

func symmetrizeRW(a *matrix.CSR, teleport float64) (*matrix.CSR, error) {
	return symmetrizeRandomWalk(context.Background(), a, teleport)
}

func symmetrizeBibliometric(a *matrix.CSR, opt Options) *matrix.CSR {
	u, _ := symmetrizeAdj(context.Background(), a, Bibliometric, opt, nil)
	return u
}

func symmetrizeDD(a *matrix.CSR, opt Options) (*matrix.CSR, error) {
	return symmetrizeAdj(context.Background(), a, DegreeDiscounted, opt, nil)
}

// mulOracle is the unpruned reference product a·b.
func mulOracle(a, b *matrix.CSR) *matrix.CSR {
	p, _ := matrix.MulPrunedCtx(context.Background(), a, b, 0)
	return p
}

// figure1 builds the paper's Figure 1 graph: nodes 4 and 5 never link
// to each other, but both point to nodes 2 and 3 and are both pointed
// to by nodes 0 and 1. They form a natural cluster that A+Aᵀ-style
// symmetrizations cannot connect.
func figure1() *matrix.CSR {
	b := matrix.NewBuilder(6, 6)
	for _, src := range []int{0, 1} {
		for _, dst := range []int{4, 5} {
			b.Add(src, dst, 1)
		}
	}
	for _, src := range []int{4, 5} {
		for _, dst := range []int{2, 3} {
			b.Add(src, dst, 1)
		}
	}
	return b.Build()
}

func randomDirected(rng *rand.Rand, n int, avgDeg float64) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	edges := int(float64(n) * avgDeg)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.Add(u, v, 1)
		}
	}
	return b.Build()
}

func TestMethodString(t *testing.T) {
	cases := map[Method]string{
		AAT:              "A+A'",
		RandomWalk:       "RandomWalk",
		Bibliometric:     "Bibliometric",
		DegreeDiscounted: "DegreeDiscounted",
		Method(99):       "Method(99)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestAATBasic(t *testing.T) {
	a := matrix.FromDense([][]float64{
		{0, 2, 0},
		{1, 0, 0},
		{0, 3, 0},
	})
	u := symmetrizeAAT(a)
	if !u.IsSymmetric(0) {
		t.Fatal("A+Aᵀ not symmetric")
	}
	if u.At(0, 1) != 3 || u.At(1, 0) != 3 {
		t.Fatalf("reciprocal weights not summed: %v", u.ToDense())
	}
	if u.At(1, 2) != 3 || u.At(2, 1) != 3 {
		t.Fatalf("one-way edge not mirrored: %v", u.ToDense())
	}
}

func TestAATFailsOnFigure1(t *testing.T) {
	// The defining weakness (§2.1.1): nodes 4 and 5 stay unconnected.
	u := symmetrizeAAT(figure1())
	if u.At(4, 5) != 0 {
		t.Fatal("A+Aᵀ connected nodes 4 and 5, expected no edge")
	}
}

func TestRandomWalkStructureMatchesAAT(t *testing.T) {
	// §3.2: the random-walk symmetrization has exactly the same edge set
	// as A + Aᵀ; only weights differ.
	rng := rand.New(rand.NewSource(21))
	a := randomDirected(rng, 40, 4)
	u, err := symmetrizeRW(a, walk.DefaultTeleport)
	if err != nil {
		t.Fatal(err)
	}
	aat := symmetrizeAAT(a)
	if u.NNZ() != aat.NNZ() {
		t.Fatalf("edge sets differ: rw %d vs a+at %d", u.NNZ(), aat.NNZ())
	}
	for i := 0; i < u.Rows; i++ {
		uc, _ := u.Row(i)
		ac, _ := aat.Row(i)
		for k := range uc {
			if uc[k] != ac[k] {
				t.Fatalf("row %d structure differs", i)
			}
		}
	}
	if !u.IsSymmetric(1e-12) {
		t.Fatal("random-walk symmetrization not symmetric")
	}
}

func TestRandomWalkNCutEquivalence(t *testing.T) {
	// Gleich's result: for U = (ΠP + PᵀΠ)/2, the undirected NCut of any
	// subset S in G_U equals the directed NCut of S in G. Verify on a
	// random graph and random subsets.
	//
	// The identity needs π exactly stationary for the *unteleported*
	// chain P (flow conservation across the cut makes the outgoing and
	// incoming cut probabilities equal). Build an ergodic graph with no
	// dangling nodes: random edges + a Hamiltonian cycle + a self-loop
	// for aperiodicity.
	rng := rand.New(rand.NewSource(5))
	b := matrix.NewBuilder(25, 25)
	for i := 0; i < 25; i++ {
		b.Add(i, (i+1)%25, 1)
	}
	b.Add(0, 0, 1)
	a := matrix.Add(randomDirected(rng, 25, 3), b.Build(), 1, 1)
	p := walk.TransitionMatrix(a)
	pi, err := walk.StationaryDistribution(p, walk.Options{Teleport: 0, Tol: 1e-14, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	piP := p.ScaleRows(pi)
	u := matrix.Add(piP, piP.Transpose(), 0.5, 0.5)

	for trial := 0; trial < 10; trial++ {
		inS := make([]bool, 25)
		for i := range inS {
			inS[i] = rng.Intn(2) == 0
		}
		// Directed ncut via π, P.
		var cutOut, cutIn, volS, volSbar float64
		for i := 0; i < 25; i++ {
			if inS[i] {
				volS += pi[i]
			} else {
				volSbar += pi[i]
			}
			cols, vals := p.Row(i)
			for k, c := range cols {
				if inS[i] && !inS[c] {
					cutOut += pi[i] * vals[k]
				}
				if !inS[i] && inS[c] {
					cutIn += pi[i] * vals[k]
				}
			}
		}
		if volS == 0 || volSbar == 0 {
			continue
		}
		ncutDir := cutOut/volS + cutIn/volSbar

		// Undirected ncut on U. Weighted degree of U is π (row sums of
		// (ΠP + PᵀΠ)/2 equal π when P is stochastic).
		var uCut, uVolS, uVolSbar float64
		deg := u.RowSums()
		for i := 0; i < 25; i++ {
			if inS[i] {
				uVolS += deg[i]
			} else {
				uVolSbar += deg[i]
			}
			cols, vals := u.Row(i)
			for k, c := range cols {
				if inS[i] != inS[int(c)] {
					uCut += vals[k]
				}
			}
		}
		uCut /= 2 // each cut edge visited from both sides
		ncutUndir := uCut/uVolS + uCut/uVolSbar

		if math.Abs(ncutDir-ncutUndir) > 1e-9 {
			t.Fatalf("trial %d: directed ncut %v != undirected ncut %v", trial, ncutDir, ncutUndir)
		}
	}
}

func TestBibliometricOnFigure1(t *testing.T) {
	u := symmetrizeBibliometric(figure1(), Options{DropDiagonal: true})
	// Nodes 4 and 5 share out-links {2,3} and in-links {0,1}: AAᵀ gives
	// 2, AᵀA gives 2, so U(4,5) = 4.
	if got := u.At(4, 5); got != 4 {
		t.Fatalf("U(4,5) = %v, want 4", got)
	}
	if !u.IsSymmetric(0) {
		t.Fatal("bibliometric not symmetric")
	}
	// Co-cited pair {2,3}: both pointed to by {4,5} → AᵀA = 2.
	if got := u.At(2, 3); got != 2 {
		t.Fatalf("U(2,3) = %v, want 2", got)
	}
	// Coupling pair {0,1}: both point to {4,5} → AAᵀ = 2.
	if got := u.At(0, 1); got != 2 {
		t.Fatalf("U(0,1) = %v, want 2", got)
	}
}

func TestBibliometricSelfLoopsPreserveEdges(t *testing.T) {
	// §3.3: with A := A + I, every original edge survives symmetrization.
	a := matrix.FromDense([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{0, 0, 0},
	})
	plain := symmetrizeBibliometric(a, Options{DropDiagonal: true})
	if plain.At(0, 1) == 0 {
		// 0→1: without self-loops, the pair (0,1) shares no links here?
		// 0 points to {1}, 1 points to {2}: no common out-links; in-links
		// of 0 = {}, of 1 = {0}: no common in-links. Edge vanishes.
		// That's the expected failure the option fixes.
	} else {
		t.Fatalf("expected edge (0,1) to vanish without self-loops, got %v", plain.At(0, 1))
	}
	withLoops := symmetrizeBibliometric(a, Options{AddSelfLoops: true, DropDiagonal: true})
	if withLoops.At(0, 1) == 0 || withLoops.At(1, 2) == 0 {
		t.Fatalf("self-loop option failed to preserve original edges: %v", withLoops.ToDense())
	}
}

func TestBibliometricThresholdPrunes(t *testing.T) {
	u0 := symmetrizeBibliometric(figure1(), Options{DropDiagonal: true})
	u3 := symmetrizeBibliometric(figure1(), Options{Threshold: 3, DropDiagonal: true})
	if u3.NNZ() >= u0.NNZ() {
		t.Fatalf("threshold did not prune: %d vs %d", u3.NNZ(), u0.NNZ())
	}
	// The (4,5) entry is 2+2 where each term is 2 < 3: both pruned.
	if u3.At(4, 5) != 0 {
		t.Fatalf("U(4,5) = %v after per-term threshold 3", u3.At(4, 5))
	}
}

func TestDegreeDiscountedMatchesExplicitFormula(t *testing.T) {
	// Cross-check the factored X·Xᵀ implementation against the naive
	// three-matrix product of Eqn 8 on random graphs.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		a := randomDirected(rng, 20, 3)
		opt := Options{Alpha: 0.5, Beta: 0.5}
		got, err := symmetrizeDD(a, opt)
		if err != nil {
			t.Fatal(err)
		}

		outDeg := a.RowCounts()
		inDeg := a.ColCounts()
		doInv := make([]float64, len(outDeg))
		diInv := make([]float64, len(inDeg))
		for i := range doInv {
			if outDeg[i] > 0 {
				doInv[i] = math.Pow(float64(outDeg[i]), -0.5)
			} else {
				doInv[i] = 1
			}
		}
		for i := range diInv {
			if inDeg[i] > 0 {
				diInv[i] = math.Pow(float64(inDeg[i]), -0.5)
			} else {
				diInv[i] = 1
			}
		}
		at := a.Transpose()
		bd := mulOracle(mulOracle(a.ScaleRows(doInv), matrix.Diagonal(diInv)), at.ScaleCols(doInv))
		cd := mulOracle(mulOracle(at.ScaleRows(diInv), matrix.Diagonal(doInv)), a.ScaleCols(diInv))
		want := matrix.Add(bd, cd, 1, 1)

		if !matrix.Equal(got, want, 1e-9) {
			t.Fatalf("trial %d: factored implementation disagrees with Eqn 8", trial)
		}
	}
}

func TestDegreeDiscountedOnFigure1(t *testing.T) {
	u, err := symmetrizeDD(figure1(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsSymmetric(1e-12) {
		t.Fatal("degree-discounted not symmetric")
	}
	// Nodes 4 and 5: out-degree 2 each, in-degree 2 each; shared
	// out-links 2,3 have in-degree 2; shared in-links 0,1 have
	// out-degree 2. With α = β = 0.5:
	// B_d(4,5) = (1/√2)(1/√2)·(1/√2 + 1/√2) = 1/√2, same for C_d →
	// U(4,5) = √2.
	if got := u.At(4, 5); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("U(4,5) = %v, want √2", got)
	}
}

func TestDegreeDiscountedDownweightsHubs(t *testing.T) {
	// Two leaf pairs: (1,2) share a low-in-degree target, (3,4) share a
	// hub target with many other in-links. After discounting, the
	// similarity through the hub must be strictly smaller.
	n := 20
	b := matrix.NewBuilder(n, n)
	// Pair (1,2) → node 0 (in-degree stays 2).
	b.Add(1, 0, 1)
	b.Add(2, 0, 1)
	// Pair (3,4) → node 5 (hub: in-degree 2 + 10).
	b.Add(3, 5, 1)
	b.Add(4, 5, 1)
	for i := 6; i < 16; i++ {
		b.Add(i, 5, 1)
	}
	u, err := symmetrizeDD(b.Build(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	low := u.At(1, 2)
	high := u.At(3, 4)
	if low <= high {
		t.Fatalf("hub-mediated similarity %v not below non-hub similarity %v", high, low)
	}
	// Undiscounted bibliometric sees both pairs identically.
	bib := symmetrizeBibliometric(b.Build(), Options{DropDiagonal: true})
	if bib.At(1, 2) != bib.At(3, 4) {
		t.Fatalf("bibliometric should not distinguish: %v vs %v", bib.At(1, 2), bib.At(3, 4))
	}
}

func TestDegreeDiscountedHubNodePenalty(t *testing.T) {
	// Figure 3(b): sharing an out-link counts for less when one of the
	// sharing nodes is itself a hub with many out-links.
	n := 20
	b := matrix.NewBuilder(n, n)
	// i=0 and j=1 both point to k=2; j is otherwise quiet.
	b.Add(0, 2, 1)
	b.Add(1, 2, 1)
	// i=0 and h=3 both point to k2=4; h is a hub with many out-links.
	b.Add(0, 4, 1)
	b.Add(3, 4, 1)
	for t2 := 5; t2 < 15; t2++ {
		b.Add(3, t2, 1)
	}
	// Give targets equal in-degree by adding one extra pointer to node 2
	// so deg_in(2) = deg_in(4) = 2: already true (2←{0,1}, 4←{0,3}).
	u, err := symmetrizeDD(b.Build(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if u.At(0, 1) <= u.At(0, 3) {
		t.Fatalf("similarity to hub %v not below similarity to non-hub %v", u.At(0, 3), u.At(0, 1))
	}
}

func TestDegreeDiscountedAlphaBetaZeroIsBibliometric(t *testing.T) {
	// α = β = 0 must reduce to the plain bibliometric symmetrization
	// (the Table 4 "no discounting" row).
	rng := rand.New(rand.NewSource(8))
	a := randomDirected(rng, 15, 3)
	dd, err := symmetrizeDD(a, Options{Alpha: 0, Beta: 0, DropDiagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	bib := symmetrizeBibliometric(a, Options{DropDiagonal: true})
	if !matrix.Equal(dd, bib, 1e-9) {
		t.Fatal("α=β=0 degree-discounted != bibliometric")
	}
}

func TestDegreeDiscountedLogVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomDirected(rng, 15, 3)
	u, err := symmetrizeDD(a, Options{
		AlphaKind: LogDiscount, BetaKind: LogDiscount, DropDiagonal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsSymmetric(1e-9) {
		t.Fatal("log-discounted matrix not symmetric")
	}
	// Log discount must lie strictly between no discount and α=β=1 for a
	// hub-mediated pair. Build the hub scenario from the earlier test.
	n := 20
	b := matrix.NewBuilder(n, n)
	b.Add(3, 5, 1)
	b.Add(4, 5, 1)
	for i := 6; i < 16; i++ {
		b.Add(i, 5, 1)
	}
	g := b.Build()
	none, _ := symmetrizeDD(g, Options{Alpha: 0, Beta: 0, DropDiagonal: true})
	logv, _ := symmetrizeDD(g, Options{AlphaKind: LogDiscount, BetaKind: LogDiscount, DropDiagonal: true})
	fullv, _ := symmetrizeDD(g, Options{Alpha: 1, Beta: 1, DropDiagonal: true})
	if !(fullv.At(3, 4) < logv.At(3, 4) && logv.At(3, 4) < none.At(3, 4)) {
		t.Fatalf("discount ordering violated: full %v, log %v, none %v",
			fullv.At(3, 4), logv.At(3, 4), none.At(3, 4))
	}
}

func TestDegreeDiscountedRejectsNegativeExponents(t *testing.T) {
	if _, err := symmetrizeDD(matrix.Identity(3), Options{Alpha: -1}); err == nil {
		t.Fatal("accepted negative alpha")
	}
}

func TestSymmetrizeDispatch(t *testing.T) {
	g, err := graph.NewDirected(figure1(), []string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods {
		u, err := Symmetrize(g, m, Defaults())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if u.N() != 6 {
			t.Fatalf("%v: node count changed", m)
		}
		if u.Labels == nil || u.Labels[0] != "a" {
			t.Fatalf("%v: labels dropped", m)
		}
		if !u.Adj.IsSymmetric(1e-9) {
			t.Fatalf("%v: asymmetric output", m)
		}
	}
	if _, err := Symmetrize(g, Method(42), Defaults()); err == nil {
		t.Fatal("accepted unknown method")
	}
}

func TestSymmetrizeNonNegativeOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g, _ := graph.NewDirected(randomDirected(rng, 30, 4), nil)
	for _, m := range Methods {
		u, err := Symmetrize(g, m, Defaults())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, v := range u.Adj.Val {
			if v < 0 {
				t.Fatalf("%v produced negative weight %v", m, v)
			}
		}
	}
}

func TestCalibrateThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := randomDirected(rng, 200, 8)
	opt := Defaults()
	th, err := CalibrateThreshold(a, opt, 10, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if th < 0 {
		t.Fatalf("negative threshold %v", th)
	}
	opt.Threshold = th
	u, err := symmetrizeDD(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(u.NNZ()) / float64(u.Rows)
	// The calibration is approximate; accept a generous band.
	if avg < 2 || avg > 50 {
		t.Fatalf("calibrated average degree %v far from target 10", avg)
	}
}

func TestCalibrateThresholdRejectsBadTarget(t *testing.T) {
	if _, err := CalibrateThreshold(matrix.Identity(4), Defaults(), 0, 2, 1); err == nil {
		t.Fatal("accepted non-positive target degree")
	}
}
