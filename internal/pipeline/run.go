package pipeline

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"symcluster/internal/core"
	"symcluster/internal/graph"
	"symcluster/internal/multilevel"
	"symcluster/internal/obs"
)

// Request names one run the way the wire does: the fields of
// symclusterd's POST /v1/cluster body and of cmd/symcluster's flags
// that decide what is computed.
type Request struct {
	// Method and Algorithm are registry names or aliases. Method may be
	// empty when Algorithm clusters the directed graph itself.
	Method    string
	Algorithm string
	// K is the target cluster count (0 when unspecified).
	K int
	// Alpha and Beta override the paper's α = β = 0.5 when set.
	Alpha, Beta *float64
	Threshold   float64
	Inflation   float64
	Seed        int64
}

// SymOptions are the request's symmetrization options: the paper's
// defaults with the request's α, β and threshold laid over them.
func (r Request) SymOptions() SymOptions {
	opt := core.Defaults()
	if r.Alpha != nil {
		opt.Alpha = *r.Alpha
	}
	if r.Beta != nil {
		opt.Beta = *r.Beta
	}
	opt.Threshold = r.Threshold
	return opt
}

// Run is a resolved request: registry entries and validated options
// for both stages, ready for Execute. Build one with Resolve or NewRun.
type Run struct {
	// Sym is nil when Cl clusters the directed graph itself: the
	// symmetrize stage is bypassed.
	Sym    Symmetrizer
	SymOpt SymOptions
	Cl     Clusterer
	ClOpt  ClusterOptions
}

// Resolve turns a wire request against a graph of the given node count
// into a Run, or says what is wrong with the request. A directed-input
// algorithm makes the method optional, but a method that is given must
// still be a real one.
func Resolve(req Request, nodes int) (*Run, error) {
	cl, err := LookupClusterer(req.Algorithm)
	if err != nil {
		return nil, err
	}
	var sym Symmetrizer
	if req.Method != "" || !cl.AcceptsDirected() {
		if sym, err = LookupSymmetrizer(req.Method); err != nil {
			return nil, err
		}
	}
	return NewRun(sym, req.SymOptions(), cl, ClusterOptions{
		TargetClusters: req.K,
		Inflation:      req.Inflation,
		Seed:           req.Seed,
	}, nodes)
}

// NewRun applies the rules every run obeys, whichever way its stages
// were named: a directed-input substrate bypasses the symmetrizer, any
// other needs one; k cannot exceed the node count; both stages accept
// their options.
func NewRun(sym Symmetrizer, symOpt SymOptions, cl Clusterer, clOpt ClusterOptions, nodes int) (*Run, error) {
	if cl.AcceptsDirected() {
		sym = nil
	} else if sym == nil {
		return nil, fmt.Errorf("pipeline: %s needs a symmetrized graph but no symmetrizer was given", cl.Name())
	}
	if clOpt.TargetClusters > nodes {
		return nil, fmt.Errorf("k=%d exceeds %d nodes", clOpt.TargetClusters, nodes)
	}
	if err := cl.Validate(clOpt); err != nil {
		return nil, err
	}
	if sym != nil {
		if err := sym.Validate(symOpt); err != nil {
			return nil, err
		}
	}
	return &Run{Sym: sym, SymOpt: symOpt, Cl: cl, ClOpt: clOpt}, nil
}

// Memo lets Execute reuse a symmetrized graph across runs over the same
// directed graph; which graph that is, is the implementation's to know.
// symclusterd's byte-budgeted cache is the implementation; the CLI and
// the library pass nil.
type Memo interface {
	// Lookup returns the graph a previous Store kept for (sym, opt) and
	// the hierarchy memo bound to it: only a reused graph keeps one.
	Lookup(sym Symmetrizer, opt SymOptions) (*graph.Undirected, *multilevel.Memo, bool)
	// Store keeps u, the result of sym.Run under opt. It may decline.
	Store(sym Symmetrizer, opt SymOptions, u *graph.Undirected)
}

// Execute runs the two-stage pipeline on g: symmetrize (skipped when
// r.Sym is nil; answered from memo when it holds the product), then
// cluster. It returns the clustering, the symmetrized graph (nil when
// bypassed or failed), and the stage trace. The trace is returned even
// on error, carrying whatever stages completed. A context that ends
// between the stages never starts the clusterer.
//
// When a trace is installed in ctx (obs.Trace.StartRoot), each stage
// runs under a "symmetrize" or "cluster" span with the stage's wire
// name attached, and the kernels underneath add their own child spans.
// The span tree itself is NOT folded into the returned StageTrace —
// the trace owner (CLI or server) attaches tr.Tree() after ending the
// root, so the tree is complete. Per-stage wall, CPU and allocation go
// to the obs.JobStats in ctx, when there is one, and a CPU profile's
// samples split by stage (labelStage).
func (r *Run) Execute(ctx context.Context, g *graph.Directed, memo Memo) (*Result, *graph.Undirected, *StageTrace, error) {
	trace := &StageTrace{Clusterer: r.Cl.Name()}
	var u *graph.Undirected
	var hier *multilevel.Memo
	if r.Sym != nil {
		trace.Symmetrizer = r.Sym.Name()
		symCtx, symSpan := obs.StartSpan(ctx, "symmetrize", obs.A("name", r.Sym.Name()))
		endStage := obs.BeginStage(ctx, "symmetrize")
		start := time.Now()
		if memo != nil {
			u, hier, trace.CacheHit = memo.Lookup(r.Sym, r.SymOpt)
			obs.JobStatsFrom(ctx).AddCache(trace.CacheHit)
			symSpan.SetAttr("cache_hit", trace.CacheHit)
		}
		var err error
		if !trace.CacheHit {
			labelStage(symCtx, "symmetrize", r.Sym.Name(), func(ctx context.Context) {
				u, err = r.Sym.Run(ctx, g, r.SymOpt)
			})
			if err == nil && memo != nil {
				memo.Store(r.Sym, r.SymOpt, u)
			}
		}
		endStage()
		trace.SymmetrizeMillis = millisSince(start)
		if err != nil {
			symSpan.EndErr(err)
			return nil, nil, trace, fmt.Errorf("symmetrize: %w", err)
		}
		trace.SymmetrizedNNZ = u.Adj.NNZ()
		symSpan.SetAttr("nnz", trace.SymmetrizedNNZ)
		symSpan.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, u, trace, err
	}
	clCtx, clSpan := obs.StartSpan(ctx, "cluster", obs.A("name", r.Cl.Name()))
	endStage := obs.BeginStage(ctx, "cluster")
	start := time.Now()
	var res *Result
	var err error
	labelStage(clCtx, "cluster", r.Cl.Name(), func(ctx context.Context) {
		res, err = r.Cl.Run(ctx, Input{U: u, G: g, Hier: hier}, r.ClOpt)
	})
	endStage()
	trace.ClusterMillis = millisSince(start)
	if err != nil {
		clSpan.EndErr(err)
		return nil, u, trace, fmt.Errorf("cluster: %w", err)
	}
	clSpan.SetAttr("clusters", res.K)
	clSpan.End()
	return res, u, trace, nil
}

// labelStage runs one stage's kernel with the goroutine's runtime/pprof
// labels stage (symmetrize | cluster) and name (the registry name) set:
// the goroutines started underneath — the engine's product workers —
// inherit them, so a profile taken from -debug-addr decomposes by stage
// and by method. The labels ctx carried are back when it returns.
func labelStage(ctx context.Context, stage, name string, run func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("stage", stage, "name", name), run)
}

// millisSince is the wall clock since start in (fractional)
// milliseconds, the unit the wire formats use.
func millisSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
