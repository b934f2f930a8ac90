package experiments

import (
	"context"
	"fmt"
	"time"

	"symcluster/internal/core"
	"symcluster/internal/eval"
	"symcluster/internal/gen"
	"symcluster/internal/graph"
	"symcluster/internal/pipeline"
	"symcluster/internal/spectral"
)

// Algo identifies a clustering substrate within the experiments. It is
// the pipeline registry's identifier, so sweeps dispatch and label
// through the registry.
type Algo = pipeline.Algorithm

// The substrates compared across the figures.
const (
	AlgoMLRMCL   = pipeline.MLRMCL
	AlgoMetis    = pipeline.Metis
	AlgoGraclus  = pipeline.Graclus
	AlgoBestWCut = pipeline.BestWCut
)

// clusterResult is the common output of the substrates.
type clusterResult = pipeline.Result

// expOptions are the experiments' historical MCL settings (30
// iterations, 1e-3 tolerance — faster than the library defaults, same
// quality on the synthetic datasets).
func expOptions(target int, inflation float64, seed int64) pipeline.ClusterOptions {
	return pipeline.ClusterOptions{
		TargetClusters: target,
		Inflation:      inflation,
		Seed:           seed,
		MCLMaxIter:     30,
		MCLTolerance:   1e-3,
	}
}

// clusterWith dispatches through the registry to a substrate at a
// target cluster count. MLR-MCL approximates the target through its
// inflation parameter.
func clusterWith(ctx context.Context, u *graph.Undirected, algo Algo, target int, seed int64) (*clusterResult, error) {
	cl, err := pipeline.ClustererFor(algo)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return cl.Run(ctx, pipeline.Input{U: u}, expOptions(target, 0, seed))
}

// clusterAtInflation runs MLR-MCL from the registry at an explicit
// inflation (the granularity sweeps of Figures 5/7/9).
func clusterAtInflation(ctx context.Context, u *graph.Undirected, inflation float64, seed int64) (*clusterResult, error) {
	cl, err := pipeline.ClustererFor(AlgoMLRMCL)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return cl.Run(ctx, pipeline.Input{U: u}, expOptions(0, inflation, seed))
}

// FPoint is one point of an effectiveness/timing series.
type FPoint struct {
	Clusters int     // actual number of clusters produced
	AvgF     float64 // percentage (0 when the dataset has no truth)
	Seconds  float64 // clustering time (excludes symmetrization)
}

// FSeries is one curve of Figures 5–9.
type FSeries struct {
	Label  string // legend entry (symmetrization or algorithm name)
	Points []FPoint
}

// inflationLadder is the MLR-MCL granularity sweep: the paper controls
// MCL's cluster count only indirectly through the inflation parameter
// (§4.2), so the MLR-MCL curves sweep inflation and report the cluster
// counts that come out.
var inflationLadder = []float64{1.2, 1.35, 1.5, 1.7, 2.0, 2.4, 2.8}

// SymmetrizationSweep reproduces the Figure 5/7 pattern: for each
// symmetrization, sweep the granularity (cluster-count targets for
// Metis/Graclus, the inflation ladder for MLR-MCL) with one clustering
// algorithm and record Avg-F and time. methods restricts the
// symmetrizations compared (the paper omits some combinations: Metis
// crashed on RandomWalk input for Wikipedia; Bibliometric is omitted
// from the scalability runs).
func SymmetrizationSweep(ctx context.Context, ds *gen.Dataset, algo Algo, methods []core.Method, targets []int, seed int64) ([]FSeries, error) {
	if len(methods) == 0 {
		methods = pipeline.Methods()
	}
	if len(targets) == 0 {
		if ds.Truth != nil {
			targets = ClusterSweep(ds.Truth.K, 7)
		} else {
			targets = ClusterSweep(ds.Graph.N()/50, 5)
		}
	}
	var out []FSeries
	for _, m := range methods {
		u, err := core.SymmetrizeCtx(ctx, ds.Graph, m, symOptionsFor(m, ds))
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep %s/%v: %w", ds.Name, m, err)
		}
		series := FSeries{Label: m.String()}
		if algo == AlgoMLRMCL {
			ladder := inflationLadder
			if len(targets) < len(ladder) {
				ladder = ladder[:len(targets)]
			}
			for _, inf := range ladder {
				start := time.Now()
				res, err := clusterAtInflation(ctx, u, inf, seed)
				if err != nil {
					return nil, fmt.Errorf("experiments: sweep %s/%v r=%v: %w", ds.Name, m, inf, err)
				}
				pt := FPoint{Clusters: res.K, Seconds: time.Since(start).Seconds()}
				if ds.Truth != nil {
					rep, err := eval.Evaluate(res.Assign, ds.Truth)
					if err != nil {
						return nil, err
					}
					pt.AvgF = 100 * rep.AvgF
				}
				series.Points = append(series.Points, pt)
			}
		} else {
			for _, target := range targets {
				start := time.Now()
				res, err := clusterWith(ctx, u, algo, target, seed)
				if err != nil {
					return nil, fmt.Errorf("experiments: sweep %s/%v k=%d: %w", ds.Name, m, target, err)
				}
				pt := FPoint{Clusters: res.K, Seconds: time.Since(start).Seconds()}
				if ds.Truth != nil {
					rep, err := eval.Evaluate(res.Assign, ds.Truth)
					if err != nil {
						return nil, err
					}
					pt.AvgF = 100 * rep.AvgF
				}
				series.Points = append(series.Points, pt)
			}
		}
		out = append(out, series)
	}
	return out, nil
}

// Figure5 reproduces Figure 5: Avg-F vs cluster count on Cora for all
// four symmetrizations, with MLR-MCL (a) and Graclus (b).
func Figure5(ctx context.Context, cora *gen.Dataset, algo Algo, seed int64) ([]FSeries, error) {
	return SymmetrizationSweep(ctx, cora, algo, pipeline.Methods(), ClusterSweep(cora.Truth.K, 7), seed)
}

// Figure6 reproduces Figure 6: Degree-discounted symmetrization +
// {MLR-MCL, Graclus, Metis} against BestWCut on Cora — Avg-F (a) and
// clustering time (b). The BestWCut timings include its eigenvector
// computation, which is what makes it orders of magnitude slower.
func Figure6(ctx context.Context, cora *gen.Dataset, seed int64) ([]FSeries, error) {
	targets := ClusterSweep(cora.Truth.K, 5)
	u, err := core.SymmetrizeCtx(ctx, cora.Graph, core.DegreeDiscounted, symOptionsFor(core.DegreeDiscounted, cora))
	if err != nil {
		return nil, err
	}
	var out []FSeries
	for _, algo := range []Algo{AlgoMLRMCL, AlgoGraclus, AlgoMetis} {
		series := FSeries{Label: algo.String()}
		for _, target := range targets {
			start := time.Now()
			res, err := clusterWith(ctx, u, algo, target, seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure6 %v k=%d: %w", algo, target, err)
			}
			secs := time.Since(start).Seconds()
			rep, err := eval.Evaluate(res.Assign, cora.Truth)
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, FPoint{Clusters: res.K, AvgF: 100 * rep.AvgF, Seconds: secs})
		}
		out = append(out, series)
	}
	// BestWCut runs on the directed graph itself.
	series := FSeries{Label: AlgoBestWCut.String()}
	for _, target := range targets {
		start := time.Now()
		res, err := spectral.BestWCutCtx(ctx, cora.Graph.Adj, target, spectral.BestWCutOptions{
			KMeans:  spectral.KMeansOptions{Seed: seed, Restarts: 2},
			Lanczos: spectral.LanczosOptions{Seed: seed},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure6 BestWCut k=%d: %w", target, err)
		}
		secs := time.Since(start).Seconds()
		rep, err := eval.Evaluate(res.Assign, cora.Truth)
		if err != nil {
			return nil, err
		}
		series.Points = append(series.Points, FPoint{Clusters: res.K, AvgF: 100 * rep.AvgF, Seconds: secs})
	}
	out = append(out, series)
	return out, nil
}

// Figure6Faithful re-times the Figure 6(b) comparison with BestWCut
// running on the dense O(n³) eigensolver that 2007-era spectral
// implementations used (Matlab `eig`). Our Lanczos reimplementation of
// BestWCut is far faster than the original; this faithful mode
// restores the paper's orders-of-magnitude timing gap. One fixed
// cluster count (the true category count) is timed per method.
func Figure6Faithful(ctx context.Context, cora *gen.Dataset, seed int64) ([]FSeries, error) {
	target := cora.Truth.K
	u, err := core.SymmetrizeCtx(ctx, cora.Graph, core.DegreeDiscounted, symOptionsFor(core.DegreeDiscounted, cora))
	if err != nil {
		return nil, err
	}
	var out []FSeries
	for _, algo := range []Algo{AlgoMLRMCL, AlgoGraclus, AlgoMetis} {
		start := time.Now()
		res, err := clusterWith(ctx, u, algo, target, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure6 faithful %v: %w", algo, err)
		}
		out = append(out, FSeries{Label: algo.String(), Points: []FPoint{{
			Clusters: res.K, Seconds: time.Since(start).Seconds(),
		}}})
	}
	start := time.Now()
	res, err := spectral.BestWCutCtx(ctx, cora.Graph.Adj, target, spectral.BestWCutOptions{
		DenseEig: true,
		KMeans:   spectral.KMeansOptions{Seed: seed, Restarts: 2},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure6 faithful BestWCut: %w", err)
	}
	out = append(out, FSeries{Label: "BestWCut(dense)", Points: []FPoint{{
		Clusters: res.K, Seconds: time.Since(start).Seconds(),
	}}})
	return out, nil
}

// ZhouBaseline runs the directed spectral clustering of Zhou, Huang &
// Schölkopf on the Cora substitute. The paper reports that this
// algorithm "did not finish execution on any of our datasets" (§4.2);
// our Lanczos-based reimplementation completes it, so its quality can
// finally be compared: it behaves like BestWCut (both minimise
// directed-cut objectives blind to shared-link structure).
func ZhouBaseline(ctx context.Context, cora *gen.Dataset, seed int64) (*FSeries, error) {
	target := cora.Truth.K
	start := time.Now()
	res, err := spectral.ZhouDirectedCtx(ctx, cora.Graph.Adj, target, spectral.ZhouOptions{
		KMeans:  spectral.KMeansOptions{Seed: seed, Restarts: 2},
		Lanczos: spectral.LanczosOptions{Seed: seed},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: zhou baseline: %w", err)
	}
	secs := time.Since(start).Seconds()
	rep, err := eval.Evaluate(res.Assign, cora.Truth)
	if err != nil {
		return nil, err
	}
	return &FSeries{Label: "Zhou et al.", Points: []FPoint{{
		Clusters: res.K, AvgF: 100 * rep.AvgF, Seconds: secs,
	}}}, nil
}

// Figure7 reproduces Figure 7: Avg-F vs cluster count on Wiki with
// MLR-MCL (all four symmetrizations) or Metis (three: the paper's
// Metis crashed on RandomWalk input). Figure 8 (clustering times on
// Wiki) is the same sweep's Seconds column.
func Figure7(ctx context.Context, wiki *gen.Dataset, algo Algo, seed int64) ([]FSeries, error) {
	methods := pipeline.Methods()
	if algo == AlgoMetis {
		methods = []core.Method{core.DegreeDiscounted, core.AAT, core.Bibliometric}
	}
	return SymmetrizationSweep(ctx, wiki, algo, methods, ClusterSweep(wiki.Truth.K, 5), seed)
}

// Figure9 reproduces Figure 9: clustering times with MLR-MCL on the
// scalability datasets (Flickr / LiveJournal substitutes), comparing
// A+Aᵀ, RandomWalk and DegreeDiscounted (Bibliometric is not viable at
// this scale — Table 2's singleton counts).
func Figure9(ctx context.Context, ds *gen.Dataset, seed int64) ([]FSeries, error) {
	methods := []core.Method{core.AAT, core.RandomWalk, core.DegreeDiscounted}
	targets := ClusterSweep(ds.Graph.N()/50, 4)
	return SymmetrizationSweep(ctx, ds, AlgoMLRMCL, methods, targets, seed)
}

// DegreeDistribution is one series of Figure 4.
type DegreeDistribution struct {
	Method  core.Method
	Hist    graph.DegreeHistogram
	MaxDeg  int
	MeanDeg float64
}

// Figure4 reproduces Figure 4: the degree distributions of the four
// symmetrizations of the Wiki graph. A+Aᵀ and RandomWalk share a
// structure; Bibliometric keeps hub nodes and many low-degree nodes;
// DegreeDiscounted concentrates mass at moderate degrees.
func Figure4(ctx context.Context, wiki *gen.Dataset) ([]DegreeDistribution, error) {
	var out []DegreeDistribution
	for _, m := range []core.Method{core.AAT, core.RandomWalk, core.Bibliometric, core.DegreeDiscounted} {
		u, err := core.SymmetrizeCtx(ctx, wiki.Graph, m, symOptionsFor(m, wiki))
		if err != nil {
			return nil, fmt.Errorf("experiments: figure4 %v: %w", m, err)
		}
		deg := u.Degrees()
		out = append(out, DegreeDistribution{
			Method:  m,
			Hist:    graph.HistogramDegrees(deg),
			MaxDeg:  graph.MaxDegree(deg),
			MeanDeg: graph.MeanDegree(deg),
		})
	}
	return out, nil
}
