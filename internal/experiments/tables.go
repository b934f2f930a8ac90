package experiments

import (
	"context"
	"fmt"
	"time"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
)

// DatasetStats is one row of Table 1.
type DatasetStats struct {
	Name         string
	Vertices     int
	Edges        int
	SymmetricPct float64
	Categories   int // 0 when the dataset has no ground truth
}

// Table1 reproduces Table 1: dataset details.
func Table1(d *Datasets) []DatasetStats {
	row := func(ds *gen.Dataset) DatasetStats {
		s := DatasetStats{
			Name:         ds.Name,
			Vertices:     ds.Graph.N(),
			Edges:        ds.Graph.M(),
			SymmetricPct: 100 * ds.Graph.SymmetricLinkFraction(),
		}
		if ds.Truth != nil {
			s.Categories = ds.Truth.K
		}
		return s
	}
	return []DatasetStats{row(d.Wiki), row(d.Cora), row(d.Flickr), row(d.LiveJournal)}
}

// SymmetrizationSize is one cell-group of Table 2.
type SymmetrizationSize struct {
	Dataset    string
	Method     core.Method
	Edges      int // undirected edge count of the symmetrized graph
	Threshold  float64
	Singletons int // isolated nodes after pruning (§5.3's viability issue)
	Seconds    float64
}

// Table2 reproduces Table 2: symmetrized edge counts per method and
// dataset, with the prune thresholds used, plus the singleton counts
// that make pruned Bibliometric non-viable.
func Table2(ctx context.Context, d *Datasets) ([]SymmetrizationSize, error) {
	var rows []SymmetrizationSize
	for _, ds := range []*gen.Dataset{d.Wiki, d.Flickr, d.Cora, d.LiveJournal} {
		for _, m := range []core.Method{core.AAT, core.RandomWalk, core.Bibliometric, core.DegreeDiscounted} {
			opt := symOptionsFor(m, ds)
			start := time.Now()
			u, err := core.SymmetrizeCtx(ctx, ds.Graph, m, opt)
			if err != nil {
				return nil, fmt.Errorf("experiments: table2 %s/%v: %w", ds.Name, m, err)
			}
			rows = append(rows, SymmetrizationSize{
				Dataset:    ds.Name,
				Method:     m,
				Edges:      u.M(),
				Threshold:  opt.Threshold,
				Singletons: u.Singletons(),
				Seconds:    time.Since(start).Seconds(),
			})
		}
	}
	return rows, nil
}

// ThresholdRow is one row of Table 3: the effect of the
// degree-discounted prune threshold on edges, quality and time.
type ThresholdRow struct {
	Threshold                           float64
	Edges                               int
	MCLF, MCLSeconds, MetisF, MetisSecs float64
}

// Table3 reproduces Table 3 on the Wiki dataset: sweep the prune
// threshold, cluster with MLR-MCL and Metis, report F and time.
func Table3(ctx context.Context, wiki *gen.Dataset, thresholds []float64, targetClusters int, seed int64) ([]ThresholdRow, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.010, 0.015, 0.020, 0.025}
	}
	if targetClusters <= 0 {
		targetClusters = wiki.Truth.K
	}
	var rows []ThresholdRow
	for _, th := range thresholds {
		opt := core.Defaults()
		opt.Threshold = th
		u, err := core.SymmetrizeCtx(ctx, wiki.Graph, core.DegreeDiscounted, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: table3 threshold %v: %w", th, err)
		}
		row := ThresholdRow{Threshold: th, Edges: u.M()}

		start := time.Now()
		mclRes, err := clusterWith(ctx, u, AlgoMLRMCL, targetClusters, seed)
		if err != nil {
			return nil, err
		}
		row.MCLSeconds = time.Since(start).Seconds()
		rep, err := eval.Evaluate(mclRes.Assign, wiki.Truth)
		if err != nil {
			return nil, err
		}
		row.MCLF = 100 * rep.AvgF

		start = time.Now()
		metRes, err := clusterWith(ctx, u, AlgoMetis, targetClusters, seed)
		if err != nil {
			return nil, err
		}
		row.MetisSecs = time.Since(start).Seconds()
		rep, err = eval.Evaluate(metRes.Assign, wiki.Truth)
		if err != nil {
			return nil, err
		}
		row.MetisF = 100 * rep.AvgF

		rows = append(rows, row)
	}
	return rows, nil
}

// AlphaBetaRow is one row of Table 4: F-scores for a discount
// configuration, clustered with Metis.
type AlphaBetaRow struct {
	Alpha, Beta string // "0", "log", "0.25", …
	CoraF       float64
	WikiF       float64
}

// Table4 reproduces Table 4: the α/β grid on Cora and Wiki with Metis
// at a fixed cluster count (the paper fixes 70 for Cora, 10000 for
// Wikipedia; the substitutes use their true category counts).
func Table4(ctx context.Context, cora, wiki *gen.Dataset, seed int64) ([]AlphaBetaRow, error) {
	type cfg struct {
		label string
		kind  core.DiscountKind
		exp   float64
	}
	mk := func(label string) cfg {
		switch label {
		case "log":
			return cfg{label: "log", kind: core.LogDiscount}
		default:
			var e float64
			fmt.Sscanf(label, "%g", &e)
			return cfg{label: label, exp: e}
		}
	}
	pairs := [][2]string{
		{"0", "0"}, {"log", "log"},
		{"0.25", "0.25"}, {"0.5", "0.5"}, {"0.75", "0.75"}, {"1", "1"},
		{"0.25", "0.5"}, {"0.25", "0.75"},
		{"0.5", "0.25"}, {"0.5", "0.75"},
		{"0.75", "0.25"}, {"0.75", "0.5"},
	}

	score := func(ds *gen.Dataset, a, b cfg) (float64, error) {
		opt := core.Defaults()
		opt.Alpha, opt.AlphaKind = a.exp, a.kind
		opt.Beta, opt.BetaKind = b.exp, b.kind
		// The paper prunes every configuration to comparable sizes;
		// entry magnitudes depend on the discount strength, so the
		// threshold does too (no discount → integer shared-link counts).
		if a.exp == 0 && a.kind == core.PowerDiscount && b.exp == 0 && b.kind == core.PowerDiscount {
			opt.Threshold = symOptionsFor(core.Bibliometric, ds).Threshold
		} else {
			opt.Threshold = symOptionsFor(core.DegreeDiscounted, ds).Threshold
		}
		u, err := core.SymmetrizeCtx(ctx, ds.Graph, core.DegreeDiscounted, opt)
		if err != nil {
			return 0, err
		}
		res, err := clusterWith(ctx, u, AlgoMetis, ds.Truth.K, seed)
		if err != nil {
			return 0, err
		}
		rep, err := eval.Evaluate(res.Assign, ds.Truth)
		if err != nil {
			return 0, err
		}
		return 100 * rep.AvgF, nil
	}

	var rows []AlphaBetaRow
	for _, p := range pairs {
		a, b := mk(p[0]), mk(p[1])
		cf, err := score(cora, a, b)
		if err != nil {
			return nil, fmt.Errorf("experiments: table4 cora α=%s β=%s: %w", p[0], p[1], err)
		}
		wf, err := score(wiki, a, b)
		if err != nil {
			return nil, fmt.Errorf("experiments: table4 wiki α=%s β=%s: %w", p[0], p[1], err)
		}
		rows = append(rows, AlphaBetaRow{Alpha: p[0], Beta: p[1], CoraF: cf, WikiF: wf})
	}
	return rows, nil
}

// TopEdgeRow is one row of Table 5: a top-weighted edge of a
// symmetrized Wiki graph.
type TopEdgeRow struct {
	Method core.Method
	Node1  string
	Node2  string
	Weight float64 // normalised by the smallest edge weight, as in the paper
}

// Table5 reproduces Table 5: the top-k weighted edges per
// symmetrization of the Wiki graph. Bibliometric and RandomWalk rank
// hub pairs first; DegreeDiscounted ranks near-duplicate specific
// pages.
func Table5(ctx context.Context, wiki *gen.Dataset, k int) ([]TopEdgeRow, error) {
	if k <= 0 {
		k = 5
	}
	var rows []TopEdgeRow
	for _, m := range []core.Method{core.RandomWalk, core.Bibliometric, core.DegreeDiscounted} {
		opt := core.Defaults()
		u, err := core.SymmetrizeCtx(ctx, wiki.Graph, m, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: table5 %v: %w", m, err)
		}
		edges := u.TopEdges(k)
		minW := smallestEdgeWeight(u)
		for _, e := range edges {
			w := e.Weight
			if minW > 0 {
				w /= minW
			}
			rows = append(rows, TopEdgeRow{
				Method: m,
				Node1:  wiki.Graph.Label(e.U),
				Node2:  wiki.Graph.Label(e.V),
				Weight: w,
			})
		}
	}
	return rows, nil
}

func smallestEdgeWeight(u *graph.Undirected) float64 {
	min := 0.0
	first := true
	for _, v := range u.Adj.Val {
		if first || v < min {
			min = v
			first = false
		}
	}
	return min
}
