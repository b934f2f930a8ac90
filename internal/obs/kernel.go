package obs

import (
	"context"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Kernel instrumentation hooks. Each hook reads the context's metrics
// registry and returns immediately when none is installed, so the
// kernels call them unconditionally from iteration boundaries — the
// same boundaries that already poll ctx.Err() and faultinject.Fire.
// Metric names use the symcluster_ prefix (library-level kernels) as
// opposed to symclusterd_ (daemon-level serving metrics).
//
// To add a new kernel hook: pick the per-iteration quantities worth a
// histogram, add an ObserveXxx helper here with a shared bucket layout
// from metrics.go, and call it at the kernel's iteration boundary —
// never inside the innermost loops. See DESIGN.md §11.

// ObserveMCLIteration records one R-MCL iteration: the flow residual
// (mean per-column L1 change), the surviving flow nonzeros, and the
// entries killed by the prune threshold this iteration.
func ObserveMCLIteration(ctx context.Context, residual float64, flowNNZ, pruned int) {
	m := Meter(ctx)
	if m == nil {
		return
	}
	m.Histogram("symcluster_mcl_residual", "Per-iteration R-MCL flow residual (mean L1 column change).", ResidualBuckets).Observe(residual)
	m.Histogram("symcluster_mcl_flow_nnz", "Flow-matrix nonzeros after pruning, per R-MCL iteration.", SizeBuckets).Observe(float64(flowNNZ))
	m.Histogram("symcluster_mcl_pruned_entries", "Flow entries killed by the prune threshold, per R-MCL iteration.", SizeBuckets).Observe(float64(pruned))
}

// ObserveMCLRun records the iteration count of one completed R-MCL
// solve (one per hierarchy level under MLR-MCL).
func ObserveMCLRun(ctx context.Context, iterations int) {
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_mcl_iterations", "R-MCL iterations per solve.", CountBuckets).Observe(float64(iterations))
	}
}

// ObserveWalkIteration records one stationary-distribution power
// iteration's L1 delta.
func ObserveWalkIteration(ctx context.Context, delta float64) {
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_walk_power_delta", "Per-iteration L1 delta of the stationary-distribution power iteration.", ResidualBuckets).Observe(delta)
	}
}

// ObserveWalkRun records the iteration count of one power-iteration
// solve.
func ObserveWalkRun(ctx context.Context, iterations int) {
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_walk_power_iterations", "Power iterations per stationary-distribution solve.", CountBuckets).Observe(float64(iterations))
	}
}

// ObserveCheckpoint records the serialized size of one kernel
// checkpoint snapshot, labeled by kernel ("mcl", "walk"), and charges
// it to the job's resource accounting.
func ObserveCheckpoint(ctx context.Context, kernel string, bytes int) {
	JobStatsFrom(ctx).AddCheckpointBytes(int64(bytes))
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_checkpoint_bytes", "Serialized checkpoint snapshot size in bytes.", SizeBuckets, "kernel").Observe(float64(bytes), kernel)
	}
}

// ObserveLanczosStep records one Lanczos step's off-diagonal norm β,
// the convergence residual of the factorisation.
func ObserveLanczosStep(ctx context.Context, beta float64) {
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_lanczos_residual", "Per-step Lanczos off-diagonal norm beta.", ResidualBuckets).Observe(beta)
	}
}

// ObserveLanczosRun records the basis size of one completed Lanczos
// factorisation.
func ObserveLanczosRun(ctx context.Context, basisSize int) {
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_lanczos_basis_size", "Krylov basis size per Lanczos factorisation.", CountBuckets).Observe(float64(basisSize))
	}
}

// ObserveCoarsen records one completed coarsening hierarchy: its depth
// and the coarsest level's node count.
func ObserveCoarsen(ctx context.Context, levels, coarsestNodes int) {
	m := Meter(ctx)
	if m == nil {
		return
	}
	m.Histogram("symcluster_coarsen_levels", "Levels per coarsening hierarchy.", CountBuckets).Observe(float64(levels))
	m.Histogram("symcluster_coarsen_coarsest_nodes", "Coarsest-level node count per hierarchy.", SizeBuckets).Observe(float64(coarsestNodes))
}

// HierarchyCounter is symclusterd_hierarchy_total in r: the one daemon
// family a kernel hook feeds, as only its cache entries carry a memo.
func HierarchyCounter(r *Registry) *Counter {
	return r.Counter("symclusterd_hierarchy_total",
		"Coarsenings asked of a cache entry's hierarchy memo, by result: hit (served from the kept hierarchy) or built.", "result")
}

// ObserveHierarchy counts one coarsening a multilevel.Memo answered.
func ObserveHierarchy(ctx context.Context, result string) {
	if m := Meter(ctx); m != nil {
		HierarchyCounter(m).Inc(result)
	}
}

// ObserveSymmetrize records one completed symmetrization: directed
// nonzeros in, undirected nonzeros out, and the product entries killed
// by the prune threshold (0 when no threshold was set), labeled by
// method.
func ObserveSymmetrize(ctx context.Context, method string, nnzIn, nnzOut int, pruned int64) {
	m := Meter(ctx)
	if m == nil {
		return
	}
	m.Histogram("symcluster_symmetrize_nnz_in", "Directed adjacency nonzeros entering symmetrization.", SizeBuckets, "method").Observe(float64(nnzIn), method)
	m.Histogram("symcluster_symmetrize_nnz_out", "Undirected nonzeros produced by symmetrization.", SizeBuckets, "method").Observe(float64(nnzOut), method)
	m.Histogram("symcluster_symmetrize_pruned_entries", "Product entries killed by the prune threshold per symmetrization.", SizeBuckets, "method").Observe(float64(pruned), method)
}

// ObserveCSRWrite records the on-disk size of one binary CSR file
// written by the csr package (tmp + fsync + rename completed). When a
// job's accounting is installed the bytes count as spill (out-of-core
// intermediates are CSR files written on the job's behalf).
func ObserveCSRWrite(ctx context.Context, bytes int64) {
	JobStatsFrom(ctx).AddSpillBytes(bytes)
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_csr_write_bytes", "Binary CSR file bytes written per csr.Writer.Close.", SizeBuckets).Observe(float64(bytes))
	}
}

// ObserveCSRMap records the size of one binary CSR file opened for
// (zero-copy or fallback) reading.
func ObserveCSRMap(ctx context.Context, bytes int64) {
	if m := Meter(ctx); m != nil {
		m.Histogram("symcluster_csr_mapped_bytes", "Binary CSR file bytes opened per csr.Open.", SizeBuckets).Observe(float64(bytes))
	}
}

// ObserveCSRIngest records one finished streaming ingestion: how many
// sorted runs spilled to disk and how many bytes flowed through the
// k-way merge (charged to the job's spill accounting when installed).
func ObserveCSRIngest(ctx context.Context, spillRuns, mergedBytes int64) {
	if spillRuns > 0 {
		JobStatsFrom(ctx).AddSpillBytes(mergedBytes)
	}
	m := Meter(ctx)
	if m == nil {
		return
	}
	m.Histogram("symcluster_csr_spill_runs", "Spill runs written per streaming CSR ingestion.", CountBuckets).Observe(float64(spillRuns))
	m.Histogram("symcluster_csr_merged_bytes", "Bytes streamed through the ingest k-way merge.", SizeBuckets).Observe(float64(mergedBytes))
}

// PruneStats accumulates how many candidate entries the sparse-product
// kernels dropped below the prune threshold, and which path their rows
// took: how many were accumulated dense and how many top-k selections
// fell back from their pre-filter to the full scan. The matrix kernels
// add their per-call totals when a collector is installed in the
// context; core.SymmetrizeCtx and mcl's iterate each install one and
// fold the totals into their span (and, the kills, into metrics).
type PruneStats struct{ killed, denseRows, selectFallbacks atomic.Int64 }

// Add records n dropped entries.
func (p *PruneStats) Add(n int64) {
	if p != nil && n > 0 {
		p.killed.Add(n)
	}
}

// Killed returns the running total.
func (p *PruneStats) Killed() int64 {
	if p == nil {
		return 0
	}
	return p.killed.Load()
}

// AddRowPaths records one product's dense rows and select fallbacks.
func (p *PruneStats) AddRowPaths(dense, fallbacks int64) {
	if p != nil {
		p.denseRows.Add(dense)
		p.selectFallbacks.Add(fallbacks)
	}
}

// RowPaths returns the running totals AddRowPaths has seen.
func (p *PruneStats) RowPaths() (dense, fallbacks int64) {
	if p == nil {
		return 0, 0
	}
	return p.denseRows.Load(), p.selectFallbacks.Load()
}

// WithPruneStats installs a fresh collector and returns it.
func WithPruneStats(ctx context.Context) (context.Context, *PruneStats) {
	ps := &PruneStats{}
	return context.WithValue(ctx, pruneKey, ps), ps
}

// PruneStatsFrom returns the installed collector, or nil (every method
// of which is a no-op).
func PruneStatsFrom(ctx context.Context) *PruneStats {
	ps, _ := ctx.Value(pruneKey).(*PruneStats)
	return ps
}

// DebugMux returns the profiling handler tree served on the daemon's
// -debug-addr listener (and usable under httptest by the e2e tests):
// the standard net/http/pprof endpoints under /debug/pprof/.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
