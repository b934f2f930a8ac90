package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"symcluster/internal/core"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/obs"
)

// TestNameRoundTrips is the registry's core contract: every accepted
// spelling of every entry — canonical name, each alias, and the
// display name — resolves back to that entry, in any letter case.
func TestNameRoundTrips(t *testing.T) {
	for _, s := range Symmetrizers() {
		spellings := append([]string{s.Name(), s.Display(), strings.ToUpper(s.Name())}, s.Aliases()...)
		for _, name := range spellings {
			got, err := LookupSymmetrizer(name)
			if err != nil {
				t.Fatalf("LookupSymmetrizer(%q): %v", name, err)
			}
			if got.Method() != s.Method() {
				t.Fatalf("LookupSymmetrizer(%q) = %v, want %v", name, got.Method(), s.Method())
			}
		}
		// ParseMethod ∘ canonical name == id, and SymmetrizerFor inverts.
		back, err := SymmetrizerFor(s.Method())
		if err != nil || back.Name() != s.Name() {
			t.Fatalf("SymmetrizerFor(%v) = %v, %v", s.Method(), back, err)
		}
	}
	for _, c := range Clusterers() {
		spellings := append([]string{c.Name(), c.Display(), strings.ToUpper(c.Name())}, c.Aliases()...)
		for _, name := range spellings {
			got, err := LookupClusterer(name)
			if err != nil {
				t.Fatalf("LookupClusterer(%q): %v", name, err)
			}
			if got.ID() != c.ID() {
				t.Fatalf("LookupClusterer(%q) = %v, want %v", name, got.ID(), c.ID())
			}
		}
		back, err := ClustererFor(c.ID())
		if err != nil || back.Name() != c.Name() {
			t.Fatalf("ClustererFor(%v) = %v, %v", c.ID(), back, err)
		}
	}
}

// TestUnknownNameErrorsListValidSet checks the dynamically generated
// error strings: every canonical name must appear, so the message can
// never go stale as entries are added.
func TestUnknownNameErrorsListValidSet(t *testing.T) {
	_, err := LookupSymmetrizer("cosine")
	if err == nil {
		t.Fatal("accepted unknown method")
	}
	for _, name := range MethodNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("method error %q omits %q", err, name)
		}
	}
	if !strings.Contains(err.Error(), "degree-discounted") {
		t.Fatalf("method error %q omits aliases", err)
	}
	_, err = LookupClusterer("kmeans")
	if err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	for _, name := range AlgorithmNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("algorithm error %q omits %q", err, name)
		}
	}
}

// TestDisplayNamesMatchCoreStrings pins the registry's display names
// to the enum String() forms the figures and legends use.
func TestDisplayNamesMatchCoreStrings(t *testing.T) {
	for _, s := range Symmetrizers() {
		if s.Display() != s.Method().String() {
			t.Fatalf("display %q != core name %q", s.Display(), s.Method().String())
		}
	}
	for _, c := range Clusterers() {
		if c.Display() != c.ID().String() {
			t.Fatalf("display %q != Algorithm.String %q", c.Display(), c.ID().String())
		}
	}
}

func TestCapabilityFlags(t *testing.T) {
	wantDirected := map[Algorithm]bool{BestWCut: true, Zhou: true}
	wantK := map[Algorithm]bool{Metis: true, Graclus: true, SpectralNCut: true, BestWCut: true, Zhou: true}
	for _, c := range Clusterers() {
		if c.AcceptsDirected() != wantDirected[c.ID()] {
			t.Fatalf("%s: AcceptsDirected = %v", c.Name(), c.AcceptsDirected())
		}
		if c.RequiresK() != wantK[c.ID()] {
			t.Fatalf("%s: RequiresK = %v", c.Name(), c.RequiresK())
		}
	}
}

func TestValidation(t *testing.T) {
	dd, _ := LookupSymmetrizer("dd")
	bad := core.Defaults()
	bad.Alpha = 1.5
	if err := dd.Validate(bad); err == nil {
		t.Fatal("accepted alpha 1.5")
	}
	bad = core.Defaults()
	bad.Teleport = 1
	if err := dd.Validate(bad); err == nil {
		t.Fatal("accepted teleport 1")
	}
	if err := dd.Validate(core.Defaults()); err != nil {
		t.Fatalf("rejected defaults: %v", err)
	}
	for _, c := range Clusterers() {
		if err := c.Validate(ClusterOptions{TargetClusters: -1}); err == nil {
			t.Fatalf("%s accepted negative k", c.Name())
		}
		if err := c.Validate(ClusterOptions{TargetClusters: 2, Inflation: 0.5}); err == nil {
			t.Fatalf("%s accepted inflation 0.5", c.Name())
		}
		if c.RequiresK() {
			if err := c.Validate(ClusterOptions{}); err == nil {
				t.Fatalf("%s accepted zero k", c.Name())
			}
		}
	}
}

// TestCostModelsPositiveAndMonotone sanity-checks the admission
// models: every stage estimate is positive, and the spectral models
// grow with k.
func TestCostModelsPositiveAndMonotone(t *testing.T) {
	gs := GraphStats{Nodes: 1000, Edges: 5000, CouplingFlops: 40000, CocitFlops: 40000}
	for _, s := range Symmetrizers() {
		if b := s.CostModel(gs); b <= 0 {
			t.Fatalf("%s: cost %d", s.Name(), b)
		}
	}
	for _, c := range Clusterers() {
		small := c.CostModel(gs.WithK(2))
		big := c.CostModel(gs.WithK(200))
		if small <= 0 {
			t.Fatalf("%s: cost %d", c.Name(), small)
		}
		if big < small {
			t.Fatalf("%s: cost not monotone in k: %d < %d", c.Name(), big, small)
		}
	}
	// Directed substrates never pay the symmetrizer's share.
	dd, _ := LookupSymmetrizer("dd")
	bw, _ := LookupClusterer("bestwcut")
	if EstimateJobBytes(dd, bw, gs.WithK(2)) != bw.CostModel(gs.WithK(2)) {
		t.Fatal("directed estimate included symmetrizer cost")
	}
	mcl, _ := LookupClusterer("mcl")
	if EstimateJobBytes(dd, mcl, gs) != dd.CostModel(gs)+mcl.CostModel(gs) {
		t.Fatal("undirected estimate did not sum both stages")
	}
}

// tracedExecute runs the pipeline under a fresh trace and returns the
// finished tree beside Execute's results: the run's only record.
func tracedExecute(run *Run, g *graph.Directed, memo Memo) (*Result, *graph.Undirected, *obs.SpanNode, error) {
	tr := obs.NewTrace()
	ctx, root := tr.StartRoot(context.Background(), "run")
	res, u, err := run.Execute(ctx, g, memo)
	root.EndErr(err)
	return res, u, tr.Tree(), err
}

// TestExecuteTraceAndBypass runs the full pipeline both ways on the
// Figure 1 graph and checks the stage spans of its tree.
func TestExecuteTraceAndBypass(t *testing.T) {
	g := gen.Figure1().Graph
	dd, _ := LookupSymmetrizer("dd")
	mcl, _ := LookupClusterer("mcl")
	run, err := NewRun(dd, core.Defaults(), mcl, ClusterOptions{Seed: 1}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, u, tree, err := tracedExecute(run, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sym, cl := tree.Child("symmetrize"), tree.Child("cluster")
	if u == nil || sym == nil || cl == nil || sym.Attrs["name"] != "dd" || cl.Attrs["name"] != "mcl" {
		t.Fatalf("tree = %+v", tree)
	}
	if nnz, _ := sym.Number("nnz"); int(nnz) != u.Adj.NNZ() || nnz == 0 {
		t.Fatalf("nnz = %v", nnz)
	}
	if _, ok := sym.Attrs["cache_hit"]; ok {
		t.Fatal("a run without a memo reports a cache lookup")
	}
	if len(res.Assign) != g.N() {
		t.Fatalf("assign len %d", len(res.Assign))
	}

	bw, _ := LookupClusterer("bestwcut")
	if run, err = NewRun(dd, core.Defaults(), bw, ClusterOptions{TargetClusters: 3, Seed: 1}, g.N()); err != nil {
		t.Fatal(err)
	}
	res, u, tree, err = tracedExecute(run, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u != nil {
		t.Fatal("directed substrate symmetrized anyway")
	}
	if tree.Child("symmetrize") != nil {
		t.Fatalf("bypass tree holds a symmetrize stage: %+v", tree)
	}
	if cl := tree.Child("cluster"); cl == nil || cl.Attrs["name"] != "bestwcut" || len(res.Assign) != g.N() {
		t.Fatalf("bypass result: cluster span=%+v len=%d", cl, len(res.Assign))
	}

	// Untraced, the library's default, the run is the same run.
	plain, _, err := run.Execute(context.Background(), g, nil)
	if err != nil || !reflect.DeepEqual(plain, res) {
		t.Fatalf("untraced run: err=%v, %+v vs %+v", err, plain, res)
	}
}

// TestExecuteValidatesBeforeRunning confirms bad options surface as
// errors from Execute even on a Run that skipped NewRun (stage
// validation is wired into each stage's Run), and from NewRun itself.
func TestExecuteValidatesBeforeRunning(t *testing.T) {
	g := gen.Figure1().Graph
	dd, _ := LookupSymmetrizer("dd")
	metis, _ := LookupClusterer("metis")
	mcl, _ := LookupClusterer("mcl")
	bad := core.Defaults()
	bad.Alpha = -2
	for name, run := range map[string]*Run{
		"metis without k": {Sym: dd, SymOpt: core.Defaults(), Cl: metis},
		"alpha -2":        {Sym: dd, SymOpt: bad, Cl: mcl},
	} {
		if _, _, err := run.Execute(context.Background(), g, nil); err == nil {
			t.Fatalf("%s ran", name)
		}
		if _, err := NewRun(run.Sym, run.SymOpt, run.Cl, run.ClOpt, g.N()); err == nil {
			t.Fatalf("%s resolved", name)
		}
	}
}
