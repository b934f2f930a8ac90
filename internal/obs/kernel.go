package obs

import (
	"context"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// PruneStats accumulates how many candidate entries the sparse-product
// kernels dropped below the prune threshold, and which path their rows
// took: how many were accumulated dense, how many top-k selections fell
// back from their pre-filter to the full scan, and how many were expanded
// in a group of rows sharing their columns. The matrix kernels
// add their per-call totals when a collector is installed in the
// context; core.SymmetrizeCtx and mcl's iterate each install one and
// fold the totals into their span.
type PruneStats struct{ killed, denseRows, selectFallbacks, groupedRows atomic.Int64 }

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

// AddRowPaths records one product's dense rows, select fallbacks and
// grouped rows.
func (p *PruneStats) AddRowPaths(dense, fallbacks, grouped int64) {
	if p != nil {
		p.denseRows.Add(dense)
		p.selectFallbacks.Add(fallbacks)
		p.groupedRows.Add(grouped)
	}
}

// RowPaths returns the running totals AddRowPaths has seen.
func (p *PruneStats) RowPaths() (dense, fallbacks, grouped int64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.denseRows.Load(), p.selectFallbacks.Load(), p.groupedRows.Load()
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
