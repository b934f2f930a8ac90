package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at
// the repo root repeats these tables (with the direction and, for the
// end-to-end ones, the regression bound); the smoke test fails when
// the two drift apart.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run (--trace 0) prints: what a caller of
// the service sees. bench/README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"avg_f", "ratio"},
}

// perLayer is what a traced run (--trace 1) prints. The first block is
// read off the public API during the traced stretch; the second is
// timed calls into each package's exported entry points (probes.go).
// A layer the workload does not cross reports 0.
var perLayer = []metricDef{
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"server.stage_symmetrize_p50_ms", "ms"},
	{"server.stage_cluster_p50_ms", "ms"},
	{"server.stage_cluster_cpu_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.register_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.refused_ratio", "ratio"},
	{"server.gc_pause_ms_per_op", "ms"},
	{"cluster.proxy_retries", "count"},
	{"cluster.proxied_share", "ratio"},
	{"cluster.proxy_hop_ms", "ms"},
	{"client.latency_p50_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"trace.attributed_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.host_ref_ms", "ms"},

	{"graph.parse_ms", "ms"},
	{"graph.parse_mb_per_s", "MB/s"},
	{"core.symmetrize_ms.dd", "ms"},
	{"core.symmetrize_alloc_mb.dd", "MB"},
	{"core.out_nnz.dd", "count"},
	{"core.symmetrize_ms.aat", "ms"},
	{"core.symmetrize_ms.rw", "ms"},
	{"core.symmetrize_ms.bib", "ms"},
	{"core.dd_scaling_exponent", "ratio"},
	{"matrix.spgemm_fused_ms", "ms"},
	{"matrix.spgemm_flops", "count"},
	{"matrix.spgemm_mflops_per_s", "Mflop/s"},
	{"matrix.transpose_ms", "ms"},
	{"mcl.cluster_ms.dd", "ms"},
	{"mcl.cluster_ms.aat", "ms"},
	{"mcl.aat_over_dd", "ratio"},
	{"mcl.alloc_mb", "MB"},
	{"multilevel.coarsen_ms", "ms"},
	{"multilevel.levels", "count"},
	{"graclus.cluster_ms", "ms"},
	{"metis.cluster_ms", "ms"},
	{"walk.pagerank_ms", "ms"},
	{"spectral.cluster_ms", "ms"},
	{"core.symmetrize_ooc_ms.dd", "ms"},
	{"core.ooc_over_incore.dd", "ratio"},
	{"csr.ingest_ms", "ms"},
	{"csr.write_ms", "ms"},
	{"csr.open_ms", "ms"},
	{"jobstore.append_fsync_p50_ms", "ms"},
	{"jobstore.append_fsync_p99_ms", "ms"},
	{"pipeline.estimate_over_actual.dd_graclus", "ratio"},
	{"pipeline.estimate_over_actual.dd_mcl", "ratio"},
	{"eval.fscore_ms", "ms"},
	{"gen.kronecker_ms", "ms"},
	{"gen.wiki_ms", "ms"},
}

// Workload names are fixed: later issues cite them.
const (
	symCold    = "sym_cold"
	mclHot     = "mcl_hot"
	serveMixed = "serve_mixed"
)

// workloadDef is one traffic mix. The why strings are repeated in
// BENCHMARK.json and expanded in bench/README.md.
type workloadDef struct {
	name    string
	clients int
	nodes   int // in-process symclusterd nodes
	// period is how many distinct requests the schedule cycles through:
	// ops whose index is equal modulo period do identical work. unit is
	// how many consecutive ops make one segment of the measured loop —
	// run between two pauses for reference ticks, and timed together for
	// ops_per_s and cpu_s_per_op: one op where a single caller makes an
	// op's wall and CPU time its own, a whole cycle where two callers
	// overlap.
	period, unit int
	// leading is how many ops, by schedule index, the golden digest
	// covers: one per R-MAT base, one per mcl_hot graph, one
	// serve_mixed block.
	leading int
	// fFloor is the lowest avg_f the gate accepts at full scale: the
	// lowest value seen over the README's noise record minus 0.05.
	fFloor float64
	why    string
}

var workloads = []workloadDef{
	{symCold, 1, 1, rmatBases, 1, 4, 0.95,
		"cold path: every op uploads a never-seen 8k-node R-MAT graph and clusters it, so dd symmetrization misses the cache and is ~3/4 of the op"},
	{mclHot, 1, 1, servingGraphs, 1, 8, 0.70,
		"hot path: symmetrization is a cache hit and MLR-MCL is >=95% of the op; the mirror image of sym_cold"},
	{serveMixed, 2, 2, mixedPeriod, mixedPeriod, mixedBlockOps, 0.59,
		"the service as run: two callers, two-node cluster, half the ops proxied, sync and async graclus/metis over cached symmetrizations; server overhead is about a seventh of the op"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes fixes every input size. Sizes never depend on the seed — only
// the wiring does — so two runs with different seeds do the same
// amount of work.
type sizes struct {
	name string
	// R-MAT (sym_cold): 2^rmatScale nodes, edge factor 12, reciprocity
	// 0.62, clustered into rmatK parts.
	rmatScale, rmatK int
	// wikiClusters list-pattern and as many reciprocal clusters per
	// serving graph (mcl_hot, serve_mixed); probeWikiClusters for the
	// one larger graph the direct probes use.
	wikiClusters, probeWikiClusters int
	// scalingScales are the R-MAT scales of core.dd_scaling_exponent.
	scalingScales []int
	// maxOps caps a measured stretch by count (0: by time only).
	maxOps int
	// setups is how many complete set-ups an untraced run times.
	setups int
	// warmups is how many untimed ops end a set-up.
	warmups int
	// probeReps is the repetitions behind each probe median; pauseTicks
	// the reference-kernel ticks of each pause of a measured loop and on
	// each side of a set-up; fsyncAppends the WAL appends behind the
	// fsync percentiles.
	probeReps, pauseTicks, fsyncAppends int
}

var (
	fullSizes = sizes{
		name:      "full",
		rmatScale: 13, rmatK: 64,
		wikiClusters: 8, probeWikiClusters: 40,
		scalingScales: []int{11, 13, 15},
		setups:        5, warmups: 2,
		probeReps: 3, pauseTicks: 2, fsyncAppends: 120,
	}
	smokeSizes = sizes{
		name:      "smoke",
		rmatScale: 8, rmatK: 8,
		wikiClusters: 4, probeWikiClusters: 6,
		scalingScales: []int{6, 7, 8},
		maxOps:        8,
		setups:        1, warmups: 1,
		probeReps: 1, pauseTicks: 1, fsyncAppends: 8,
	}
)

// Fixed shape of the inputs, shared by both scales.
const (
	rmatBases       = 4
	rmatEdgeFactor  = 12
	rmatReciprocity = 0.62
	servingGraphs   = 8
	mixedBlockOps   = 20
	// The serve_mixed block rotates each owner's graphs with the block
	// number, so the schedule repeats after one block per graph an owner
	// holds.
	mixedPeriod     = mixedBlockOps * servingGraphs / 2
	listMembers     = 20
	recipMembers    = 28
	ddThresholdCold = 0.03 // sym_cold dd prune threshold
	ddThresholdHot  = 0.05 // mcl_hot / serve_mixed dd prune threshold
	bibThreshold    = 2
	pollEvery       = 2 // ms between polls of an async job
)
