package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	symcluster "symcluster"
	"symcluster/internal/core"
	"symcluster/internal/csr"
	"symcluster/internal/graph"
	"symcluster/internal/jobstore"
	"symcluster/internal/matrix"
	"symcluster/internal/multilevel"
	"symcluster/internal/pipeline"
	"symcluster/internal/walk"
)

// prober times direct calls into each package's exported entry points
// on the workloads' own inputs: R-MAT base 0 of the run's seed and one
// Wikipedia-like graph of probeWikiClusters+probeWikiClusters clusters.
// Probes run after the HTTP stretches, with no server alive, and only
// for the layers the workload crosses (bench/README.md has the table);
// the rest stay 0.
type prober struct {
	ctx     context.Context
	sz      sizes
	seed    int64
	scratch string
	out     map[string]float64
}

func runProbes(def workloadDef, sz sizes, seed int64, outDir string, out map[string]float64) error {
	scratch, err := os.MkdirTemp(outDir, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	p := &prober{ctx: context.Background(), sz: sz, seed: seed, scratch: scratch, out: out}
	if err := p.common(); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	steps := map[string]func() error{symCold: p.cold, mclHot: p.hot, serveMixed: p.mixed}
	if err := steps[def.name](); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	return nil
}

// wall records the median wall time of fn under name.
func (p *prober) wall(name string, reps int, fn func() error) error {
	ms, _, err := timed(reps, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.out[name] = ms
	return nil
}

// probe is one named timing.
type probe struct {
	name string
	reps int
	fn   func() error
}

// walls records each probe in order and stops at the first failure.
func (p *prober) walls(probes ...probe) error {
	for _, pr := range probes {
		if err := p.wall(pr.name, pr.reps, pr.fn); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) symmetrize(g *graph.Directed, method core.Method, threshold float64) (*graph.Undirected, error) {
	opt := core.Defaults()
	opt.Threshold = threshold
	return core.SymmetrizeCtx(p.ctx, g, method, opt)
}

func (p *prober) cluster(u *graph.Undirected, algo symcluster.Algorithm, k int) error {
	_, err := symcluster.ClusterCtx(p.ctx, u, algo, symcluster.ClusterOptions{TargetClusters: k, Seed: 1})
	return err
}

// common probes the layers every workload's set-up and checks cross:
// the generators and the F-score.
func (p *prober) common() error {
	ds, err := genWiki(p.sz.wikiClusters, p.seed*1000)
	if err != nil {
		return err
	}
	// Score the truth's own first-category assignment: the cost of
	// Evaluate depends on sizes, not on how good the clustering is.
	assign := make([]int, ds.Graph.N())
	for i, cats := range ds.Truth.Categories {
		assign[i] = ds.Truth.K
		if len(cats) > 0 {
			assign[i] = cats[0]
		}
	}
	return p.walls(
		probe{"gen.kronecker_ms", p.sz.probeReps, func() error {
			_, err := genRMAT(p.sz.rmatScale, p.seed*1000)
			return err
		}},
		probe{"gen.wiki_ms", p.sz.probeReps, func() error {
			_, err := genWiki(p.sz.wikiClusters, p.seed*1000)
			return err
		}},
		probe{"eval.fscore_ms", p.sz.probeReps, func() error {
			_, err := symcluster.Evaluate(assign, ds.Truth)
			return err
		}},
	)
}

// estimateOverActual is the admission estimate of a job over the bytes
// the same job really allocated when run through the library.
func (p *prober) estimateOverActual(name string, g *graph.Directed, threshold float64, algoName string, k int) error {
	sym, err := pipeline.LookupSymmetrizer("dd")
	if err != nil {
		return err
	}
	cl, err := pipeline.LookupClusterer(algoName)
	if err != nil {
		return err
	}
	est := pipeline.EstimateJobBytes(sym, cl, pipeline.StatsFor(g).WithK(k))
	opt := symcluster.DefaultSymmetrizeOptions()
	opt.Threshold = threshold
	_, allocMB, err := timed(1, func() error {
		_, err := symcluster.ClusterDirectedCtx(p.ctx, g, symcluster.DegreeDiscounted, opt, cl.ID(),
			symcluster.ClusterOptions{TargetClusters: k, Seed: 1})
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.out[name] = float64(est) / (allocMB * 1e6)
	return nil
}

// cold probes what sym_cold crosses: parse, dd symmetrization and its
// SpGEMM, graclus on the result, and the durable / out-of-core layers
// no workload reaches yet.
func (p *prober) cold() error {
	base, err := newRMATBase(p.sz.rmatScale, p.seed*1000)
	if err != nil {
		return err
	}
	var g *graph.Directed
	if err := p.wall("graph.parse_ms", p.sz.probeReps, func() error {
		g, err = graph.ReadEdgeList(bytes.NewReader(base.text))
		return err
	}); err != nil {
		return err
	}
	p.out["graph.parse_mb_per_s"] = float64(len(base.text)) / 1e6 / (p.out["graph.parse_ms"] / 1e3)

	var u *graph.Undirected
	ms, allocMB, err := timed(p.sz.probeReps, func() error {
		u, err = p.symmetrize(g, core.DegreeDiscounted, ddThresholdCold)
		return err
	})
	if err != nil {
		return err
	}
	p.out["core.symmetrize_ms.dd"] = ms
	p.out["core.symmetrize_alloc_mb.dd"] = allocMB
	p.out["core.out_nnz.dd"] = float64(u.Adj.NNZ())

	if err := p.scaling(); err != nil {
		return err
	}
	if err := p.spgemm(g.Adj); err != nil {
		return err
	}
	if err := p.wall("graclus.cluster_ms", p.sz.probeReps, func() error {
		return p.cluster(u, symcluster.Graclus, p.sz.rmatK)
	}); err != nil {
		return err
	}
	if err := p.estimateOverActual("pipeline.estimate_over_actual.dd_graclus", g, ddThresholdCold, "graclus", p.sz.rmatK); err != nil {
		return err
	}

	oocCtx := core.WithOutOfCore(p.ctx, core.OutOfCoreConfig{ScratchDir: p.scratch})
	opt := core.Defaults()
	opt.Threshold = ddThresholdCold
	if err := p.wall("core.symmetrize_ooc_ms.dd", p.sz.probeReps, func() error {
		_, err := core.SymmetrizeCtx(oocCtx, g, core.DegreeDiscounted, opt)
		return err
	}); err != nil {
		return err
	}
	p.out["core.ooc_over_incore.dd"] = p.out["core.symmetrize_ooc_ms.dd"] / p.out["core.symmetrize_ms.dd"]
	if err := p.store(base.text, g); err != nil {
		return err
	}
	return p.fsync()
}

// scaling fits log(dd ms) against log(nodes) over the R-MAT scales: the
// exponent, not just the constant, goes on file. The largest scale runs
// once; it is the bulk of the probe budget.
func (p *prober) scaling() error {
	var xs, ys []float64
	scales := p.sz.scalingScales
	for i, scale := range scales {
		g, err := genRMAT(scale, p.seed*1000)
		if err != nil {
			return err
		}
		reps := p.sz.probeReps
		if i == len(scales)-1 {
			reps = 1
		}
		ms, _, err := timed(reps, func() error {
			_, err := p.symmetrize(g, core.DegreeDiscounted, ddThresholdCold)
			return err
		})
		if err != nil {
			return err
		}
		xs = append(xs, math.Log(float64(g.N())))
		ys = append(ys, math.Log(ms))
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	p.out["core.dd_scaling_exponent"] = sxy / sxx
	return nil
}

// spgemm times the fused self-product X·Xᵀ of the dd coupling factor
// X = D_out^-1/2 · A · D_in^-1/4 — the kernel under dd symmetrization —
// through the fused entry point only, and counts its multiply-adds
// exactly.
func (p *prober) spgemm(a *matrix.CSR) error {
	scale := func(deg []int, exp float64) []float64 {
		out := make([]float64, len(deg))
		for i, d := range deg {
			out[i] = 1
			if d > 0 {
				out[i] = math.Pow(float64(d), exp)
			}
		}
		return out
	}
	rs, cs := scale(a.RowCounts(), -0.5), scale(a.ColCounts(), -0.25)
	var at *matrix.CSR
	if err := p.wall("matrix.transpose_ms", p.sz.probeReps, func() error {
		at = a.Transpose()
		return nil
	}); err != nil {
		return err
	}
	if err := p.wall("matrix.spgemm_fused_ms", p.sz.probeReps, func() error {
		_, err := matrix.MulXXTScaledPrunedCtx(p.ctx, a, at, rs, cs, ddThresholdCold, 1)
		return err
	}); err != nil {
		return err
	}
	// Row i of X·Xᵀ meets, for each of its entries (i,k), every entry of
	// column k: one multiply and one add each.
	var flops int64
	for _, c := range a.ColCounts() {
		flops += 2 * int64(c) * int64(c)
	}
	p.out["matrix.spgemm_flops"] = float64(flops)
	p.out["matrix.spgemm_mflops_per_s"] = float64(flops) / 1e6 / (p.out["matrix.spgemm_fused_ms"] / 1e3)
	return nil
}

// store times the binary CSR store: streaming ingest of the edge-list
// text, a whole-matrix write, and an mmap open.
func (p *prober) store(text []byte, g *graph.Directed) error {
	ingested := filepath.Join(p.scratch, "ingested.csr")
	written := filepath.Join(p.scratch, "written.csr")
	return p.walls(
		probe{"csr.ingest_ms", p.sz.probeReps, func() error {
			in, err := csr.NewIngester(p.scratch, 64<<20)
			if err != nil {
				return err
			}
			const chunk = 1 << 20 // the upload API's natural chunk size
			for off := 0; off < len(text); off += chunk {
				if err := in.Append(text[off:min(off+chunk, len(text))]); err != nil {
					in.Abort()
					return err
				}
			}
			_, err = in.Finalize(p.ctx, ingested)
			return err
		}},
		probe{"csr.write_ms", p.sz.probeReps, func() error {
			return csr.WriteMatrix(p.ctx, written, g.Adj)
		}},
		probe{"csr.open_ms", p.sz.probeReps, func() error {
			mp, err := csr.Open(p.ctx, written)
			if err != nil {
				return err
			}
			return mp.Close()
		}},
	)
}

// fsync times single WAL appends, each of which is fsynced before it
// returns: what durable mode adds to every job transition.
func (p *prober) fsync() error {
	st, err := jobstore.Open(filepath.Join(p.scratch, "wal"))
	if err != nil {
		return err
	}
	defer st.Close()
	request, err := json.Marshal(map[string]any{"graph_id": "g-0000000000000000", "method": "dd", "algorithm": "graclus", "k": p.sz.rmatK})
	if err != nil {
		return err
	}
	var walls []float64
	for i := 0; i < p.sz.fsyncAppends; i++ {
		rec := &jobstore.JobRecord{ID: fmt.Sprintf("job-%06d", i+1), State: jobstore.Pending, Request: request, Created: time.Now()}
		start := time.Now()
		if err := st.Create(rec); err != nil {
			return err
		}
		walls = append(walls, millis(time.Since(start)))
	}
	p.out["jobstore.append_fsync_p50_ms"] = median(walls)
	p.out["jobstore.append_fsync_p99_ms"] = percentile(walls, 0.99)
	return nil
}

// probeWiki is the one larger Wikipedia-like graph the clustering
// probes run on, so the MCL ≫ symmetrize finding stays on file at about
// the size earlier ledgers used.
func (p *prober) probeWiki() (*graph.Directed, *graph.Undirected, int, error) {
	ds, err := genWiki(p.sz.probeWikiClusters, p.seed*1000)
	if err != nil {
		return nil, nil, 0, err
	}
	u, err := p.symmetrize(ds.Graph, core.DegreeDiscounted, ddThresholdHot)
	return ds.Graph, u, ds.Truth.K, err
}

func (p *prober) coarsen(u *graph.Undirected) error {
	var depth int
	if err := p.wall("multilevel.coarsen_ms", p.sz.probeReps, func() error {
		h, err := multilevel.CoarsenCtx(p.ctx, u.Adj, multilevel.Options{Seed: 1})
		if err == nil {
			depth = h.Depth()
		}
		return err
	}); err != nil {
		return err
	}
	p.out["multilevel.levels"] = float64(depth)
	return nil
}

// hot probes what mcl_hot crosses: MLR-MCL on the dd and the A+Aᵀ
// symmetrizations of one graph (the paper's Figs 8/9 ratio, base dd),
// and the coarsening under it.
func (p *prober) hot() error {
	g, uDD, _, err := p.probeWiki()
	if err != nil {
		return err
	}
	ms, allocMB, err := timed(p.sz.probeReps, func() error { return p.cluster(uDD, symcluster.MLRMCL, 0) })
	if err != nil {
		return err
	}
	p.out["mcl.cluster_ms.dd"] = ms
	p.out["mcl.alloc_mb"] = allocMB
	uAAT, err := p.symmetrize(g, core.AAT, 0)
	if err != nil {
		return err
	}
	reps := p.sz.probeReps
	if reps > 2 {
		reps = 2 // the slowest probe: 2 s a run at full scale
	}
	if err := p.wall("mcl.cluster_ms.aat", reps, func() error { return p.cluster(uAAT, symcluster.MLRMCL, 0) }); err != nil {
		return err
	}
	p.out["mcl.aat_over_dd"] = p.out["mcl.cluster_ms.aat"] / ms
	if err := p.coarsen(uDD); err != nil {
		return err
	}
	return p.estimateOverActual("pipeline.estimate_over_actual.dd_mcl", g, ddThresholdHot, "mcl", 0)
}

// mixed probes what serve_mixed crosses: the three symmetrizations only
// its set-up runs, graclus and metis, the coarsening both share, and —
// ungated — the PageRank under rw and spectral clustering.
func (p *prober) mixed() error {
	g, uDD, k, err := p.probeWiki()
	if err != nil {
		return err
	}
	sym := func(method core.Method, threshold float64) func() error {
		return func() error {
			_, err := p.symmetrize(g, method, threshold)
			return err
		}
	}
	if err := p.walls(
		probe{"core.symmetrize_ms.aat", p.sz.probeReps, sym(core.AAT, 0)},
		probe{"core.symmetrize_ms.rw", p.sz.probeReps, sym(core.RandomWalk, 0)},
		probe{"core.symmetrize_ms.bib", p.sz.probeReps, sym(core.Bibliometric, bibThreshold)},
	); err != nil {
		return err
	}
	if err := p.coarsen(uDD); err != nil {
		return err
	}
	return p.walls(
		probe{"graclus.cluster_ms", p.sz.probeReps, func() error { return p.cluster(uDD, symcluster.Graclus, k) }},
		probe{"metis.cluster_ms", p.sz.probeReps, func() error { return p.cluster(uDD, symcluster.Metis, k) }},
		probe{"walk.pagerank_ms", p.sz.probeReps, func() error {
			_, err := walk.PageRankCtx(p.ctx, g.Adj, walk.DefaultTeleport)
			return err
		}},
		probe{"spectral.cluster_ms", 1, func() error { return p.cluster(uDD, symcluster.Spectral, k) }},
	)
}
