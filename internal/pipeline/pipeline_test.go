package pipeline

import (
	"context"
	"os"
	"reflect"
	"slices"
	"sort"
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
	for _, s := range symRegistry {
		for _, name := range append(s.spellings(), s.Method.String(), strings.ToUpper(s.Name)) {
			if got, err := LookupSymmetrizer(name); err != nil || got != s {
				t.Fatalf("LookupSymmetrizer(%q) = %v, %v; want %s", name, got, err, s.Name)
			}
		}
		// SymmetrizerFor inverts the entry's enum value.
		if back, err := SymmetrizerFor(s.Method); err != nil || back != s {
			t.Fatalf("SymmetrizerFor(%v) = %v, %v", s.Method, back, err)
		}
	}
	for _, c := range cluRegistry {
		for _, name := range append(c.spellings(), c.Display, strings.ToUpper(c.Name)) {
			if got, err := LookupClusterer(name); err != nil || got != c {
				t.Fatalf("LookupClusterer(%q) = %v, %v; want %s", name, got, err, c.Name)
			}
		}
		if back, err := ClustererFor(c.ID()); err != nil || back != c {
			t.Fatalf("ClustererFor(%v) = %v, %v", c.ID(), back, err)
		}
	}
}

// catalogRow is one row of DESIGN.md §10's "Name and alias catalog":
// every spelling it names (canonical, aliases, display; lowercased,
// canonical first) and its kind cell.
type catalogRow struct {
	names []string
	kind  string
}

// designCatalog parses DESIGN.md §10's name and alias catalog into its
// symmetrizer and clusterer rows, each keyed by canonical name.
func designCatalog(t *testing.T) (syms, clus map[string]catalogRow) {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### Name and alias catalog\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Name and alias catalog\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	syms, clus = map[string]catalogRow{}, map[string]catalogRow{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		var row catalogRow
		for _, cell := range cells[1:4] {
			for _, n := range strings.Split(cell, ",") {
				row.names = append(row.names, strings.ToLower(strings.Trim(strings.TrimSpace(n), "`")))
			}
		}
		row.kind = strings.TrimSpace(cells[4])
		if strings.HasPrefix(row.kind, "symmetrizer") {
			syms[row.names[0]] = row
		} else {
			clus[row.names[0]] = row
		}
	}
	if len(syms) == 0 || len(clus) == 0 {
		t.Fatalf("DESIGN.md §10 catalog: %d symmetrizer and %d clusterer rows", len(syms), len(clus))
	}
	return syms, clus
}

// checkCatalog holds one registry to its catalog rows both ways: every
// spelling a row names resolves to that row's entry, every spelling an
// entry accepts appears in its row, the kind cell states the entry's
// capabilities, and no spelling names two entries.
func checkCatalog[E interface {
	comparable
	spellings() []string
}](t *testing.T, entries []E, rows map[string]catalogRow, lookup func(string) (E, error), kind func(E) string) {
	t.Helper()
	if len(rows) != len(entries) {
		t.Errorf("catalog has %d rows for %d entries", len(rows), len(entries))
	}
	owner := map[string]E{}
	for _, e := range entries {
		names := e.spellings()
		for _, n := range names {
			if prev, dup := owner[n]; dup && prev != e {
				t.Errorf("%q names both %s and %s", n, prev.spellings()[0], names[0])
			}
			owner[n] = e
		}
		row, ok := rows[names[0]]
		if !ok {
			t.Errorf("%s has no row in DESIGN.md §10's catalog", names[0])
			continue
		}
		for _, n := range names {
			if !slices.Contains(row.names, n) {
				t.Errorf("%s accepts %q, which its catalog row omits", names[0], n)
			}
		}
		for _, n := range row.names {
			if got, err := lookup(n); err != nil || got != e {
				t.Errorf("catalog row %s names %q, which resolves to %v, %v", names[0], n, got, err)
			}
		}
		if want := kind(e); row.kind != want {
			t.Errorf("catalog row %s: kind %q, want %q", names[0], row.kind, want)
		}
	}
}

// TestNameCatalogMatchesDesign parses DESIGN.md §10's "Name and alias
// catalog" against the registry, both ways, and holds every enum value
// to one entry: a bad registration cannot ship.
func TestNameCatalogMatchesDesign(t *testing.T) {
	syms, clus := designCatalog(t)
	checkCatalog(t, symRegistry, syms, LookupSymmetrizer, func(*Symmetrizer) string { return "symmetrizer" })
	checkCatalog(t, cluRegistry, clus, LookupClusterer, func(c *Clusterer) string {
		var caps []string
		if c.RequiresK {
			caps = append(caps, "k")
		}
		if c.AcceptsDirected {
			caps = append(caps, "directed")
		}
		if len(caps) == 0 {
			return "clusterer"
		}
		return "clusterer (" + strings.Join(caps, ", ") + ")"
	})
	methods, ids := map[core.Method]bool{}, map[Algorithm]bool{}
	for _, s := range symRegistry {
		if methods[s.Method] {
			t.Errorf("two symmetrizers for method %v", s.Method)
		}
		methods[s.Method] = true
	}
	for _, c := range cluRegistry {
		if ids[c.id] {
			t.Errorf("two clusterers for id %d", int(c.id))
		}
		ids[c.id] = true
	}
}

// TestUnknownNameErrorsListValidSet pins the name contract: both
// unknown-name errors byte for byte — generated from the registry, the
// canonical names in registry order, then every other accepted spelling
// sorted — and the spellings each entry accepts, which are all the
// errors list, so no spelling parses that is not named here.
func TestUnknownNameErrorsListValidSet(t *testing.T) {
	const (
		methodErr = `unknown method "cosine" (valid: dd, bib, aat, rw; aliases: a+a', a+at, bibcoupling, ` +
			`bibliometric, degree-discounted, degreediscounted, random-walk, randomwalk, sum)`
		algoErr = `unknown algorithm "kmeans" (valid: mcl, metis, graclus, spectral, bestwcut, zhou; aliases: ` +
			`best-wcut, directed-laplacian, kernel-kmeans, kway, mlr-mcl, mlrmcl, ncut, spectral-ncut, wcut, zhou-directed)`
	)
	methods := map[core.Method][]string{
		core.DegreeDiscounted: {"dd", "degree-discounted", "degreediscounted"},
		core.Bibliometric:     {"bib", "bibliometric", "bibcoupling"},
		core.AAT:              {"aat", "a+at", "sum", "a+a'"},
		core.RandomWalk:       {"rw", "random-walk", "randomwalk"},
	}
	algos := map[Algorithm][]string{
		MLRMCL:       {"mcl", "mlrmcl", "mlr-mcl"},
		Metis:        {"metis", "kway"},
		Graclus:      {"graclus", "kernel-kmeans"},
		SpectralNCut: {"spectral", "ncut", "spectral-ncut"},
		BestWCut:     {"bestwcut", "best-wcut", "wcut"},
		Zhou:         {"zhou", "zhou-directed", "directed-laplacian"},
	}
	// listed is every spelling an unknown-name error names, sorted.
	listed := func(err error) []string {
		_, valid, _ := strings.Cut(err.Error(), "(valid: ")
		names := strings.Split(strings.NewReplacer("; aliases: ", ", ", ")", "").Replace(valid), ", ")
		sort.Strings(names)
		return names
	}
	var all []string
	_, err := LookupSymmetrizer("cosine")
	if err == nil || err.Error() != methodErr {
		t.Fatalf("method error:\n%v\nwant\n%s", err, methodErr)
	}
	for m, names := range methods {
		want, _ := SymmetrizerFor(m)
		for _, name := range names {
			if got, err := LookupSymmetrizer(name); err != nil || got != want {
				t.Errorf("LookupSymmetrizer(%q) = %v, %v; want the %v entry", name, got, err, m)
			}
		}
		all = append(all, names...)
	}
	if sort.Strings(all); !reflect.DeepEqual(listed(err), all) {
		t.Errorf("method error lists %v, the entries accept %v", listed(err), all)
	}
	all = nil
	_, err = LookupClusterer("kmeans")
	if err == nil || err.Error() != algoErr {
		t.Fatalf("algorithm error:\n%v\nwant\n%s", err, algoErr)
	}
	for a, names := range algos {
		want, _ := ClustererFor(a)
		for _, name := range names {
			if got, err := LookupClusterer(name); err != nil || got != want {
				t.Errorf("LookupClusterer(%q) = %v, %v; want the %v entry", name, got, err, a)
			}
		}
		all = append(all, names...)
	}
	if sort.Strings(all); !reflect.DeepEqual(listed(err), all) {
		t.Errorf("algorithm error lists %v, the entries accept %v", listed(err), all)
	}
}

func TestCapabilityFlags(t *testing.T) {
	wantDirected := map[Algorithm]bool{BestWCut: true, Zhou: true}
	wantK := map[Algorithm]bool{Metis: true, Graclus: true, SpectralNCut: true, BestWCut: true, Zhou: true}
	for _, c := range cluRegistry {
		if c.AcceptsDirected != wantDirected[c.ID()] {
			t.Fatalf("%s: AcceptsDirected = %v", c.Name, c.AcceptsDirected)
		}
		if c.RequiresK != wantK[c.ID()] {
			t.Fatalf("%s: RequiresK = %v", c.Name, c.RequiresK)
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
	for _, c := range cluRegistry {
		if err := c.Validate(ClusterOptions{TargetClusters: -1}); err == nil {
			t.Fatalf("%s accepted negative k", c.Name)
		}
		if err := c.Validate(ClusterOptions{TargetClusters: 2, Inflation: 0.5}); err == nil {
			t.Fatalf("%s accepted inflation 0.5", c.Name)
		}
		if c.RequiresK {
			if err := c.Validate(ClusterOptions{}); err == nil {
				t.Fatalf("%s accepted zero k", c.Name)
			}
		}
	}
}

// TestCostModelsPositiveAndMonotone sanity-checks the admission
// models: every stage estimate is positive, and the spectral models
// grow with k.
func TestCostModelsPositiveAndMonotone(t *testing.T) {
	gs := GraphStats{Nodes: 1000, Edges: 5000, CouplingFlops: 40000, CocitFlops: 40000}
	for _, s := range symRegistry {
		if b := s.cost(gs); b <= 0 {
			t.Fatalf("%s: cost %d", s.Name, b)
		}
	}
	for _, c := range cluRegistry {
		small := c.cost(gs.WithK(2))
		big := c.cost(gs.WithK(200))
		if small <= 0 {
			t.Fatalf("%s: cost %d", c.Name, small)
		}
		if big < small {
			t.Fatalf("%s: cost not monotone in k: %d < %d", c.Name, big, small)
		}
	}
	// Directed substrates never pay the symmetrizer's share.
	dd, _ := LookupSymmetrizer("dd")
	bw, _ := LookupClusterer("bestwcut")
	if EstimateJobBytes(dd, bw, gs.WithK(2)) != bw.cost(gs.WithK(2)) {
		t.Fatal("directed estimate included symmetrizer cost")
	}
	mcl, _ := LookupClusterer("mcl")
	if EstimateJobBytes(dd, mcl, gs) != dd.cost(gs)+mcl.cost(gs) {
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
