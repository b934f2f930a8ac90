// Package walk implements the random-walk substrate: row-stochastic
// transition matrices over directed graphs and stationary distributions
// (PageRank) computed by power iteration. The Random-walk
// symmetrization (paper §3.2) and the directed spectral baselines
// (Zhou et al., BestWCut) are built on top of it.
package walk

import (
	"context"
	"fmt"
	"math"

	"symcluster/internal/checkpoint"
	"symcluster/internal/faultinject"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// DefaultTeleport is the uniform teleport probability the paper uses
// when computing stationary distributions (§4.2).
const DefaultTeleport = 0.05

// TransitionMatrix returns the row-stochastic transition matrix P of
// the natural random walk on the directed graph with adjacency a:
// P(i,j) = a(i,j) / Σ_k a(i,k). Rows of dangling nodes (zero
// out-degree) are left empty; the power iteration redistributes their
// mass uniformly, which is the standard PageRank dangling-node fix.
func TransitionMatrix(a *matrix.CSR) *matrix.CSR {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("walk: adjacency %dx%d not square", a.Rows, a.Cols))
	}
	return a.NormalizeRows()
}

// Options configures StationaryDistributionCtx.
type Options struct {
	// Teleport is the probability of jumping to a uniformly random node
	// at each step. Zero is allowed only for walks known to be ergodic;
	// the paper uses 0.05 throughout.
	Teleport float64
	// Tol is the L1 convergence tolerance. Defaults to 1e-10.
	Tol float64
	// MaxIter bounds the number of power iterations. Defaults to 1000.
	MaxIter int
}

func (o *Options) fill() {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
}

// StationaryDistributionCtx computes π with π = π·P' by power
// iteration, where P' is P blended with uniform teleporting and with
// dangling rows replaced by the uniform distribution. The returned
// vector sums to 1.
//
// The iteration computes, with t the teleport probability and n nodes:
//
//	π_{k+1} = (1-t)·(π_k P + dangling(π_k)/n · 1) + t/n · 1
//
// which never materialises the dense teleport matrix. ctx is polled once
// per power iteration, so a cancelled context aborts the walk within one
// iteration with ctx's error. Each call opens a "walk.power" span that
// records the iteration count (a no-op without a trace in ctx).
//
// When a checkpoint.Sink is installed in ctx, the solve restores the
// "walk" snapshot for this invocation (resume_iter span attribute),
// saves π every sink.Interval() iterations, and saves once more at the
// cancellation boundary so a drained job resumes mid-solve.
func StationaryDistributionCtx(ctx context.Context, p *matrix.CSR, opt Options) (dist []float64, err error) {
	opt.fill()
	n := p.Rows
	if n == 0 {
		return nil, fmt.Errorf("walk: empty transition matrix")
	}
	if opt.Teleport < 0 || opt.Teleport >= 1 {
		return nil, fmt.Errorf("walk: teleport %v outside [0,1)", opt.Teleport)
	}
	ctx, sp := obs.StartSpan(ctx, "walk.power",
		obs.A("nodes", n), obs.A("teleport", opt.Teleport))
	iters := 0
	defer func() {
		sp.SetAttr("iterations", iters)
		sp.EndErr(err)
	}()

	dangling := make([]bool, n)
	for i := 0; i < n; i++ {
		dangling[i] = p.RowNNZ(i) == 0
	}

	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := make([]float64, n)

	start := 0
	sink := checkpoint.FromContext(ctx)
	if sink != nil {
		if it0, blob, ok := sink.Restore("walk"); ok && it0 > 0 {
			// A snapshot for a different-sized graph fails the length
			// check in DecodeVector and is ignored.
			if v, derr := checkpoint.DecodeVector(blob, n); derr == nil {
				pi = v
				start = it0
			}
		}
		sp.SetAttr("resume_iter", start)
	}
	saved := start

	for iter := start; iter < opt.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			if sink != nil && iter > saved {
				// Best-effort snapshot at the cancellation boundary; the
				// cancel error still wins.
				saveWalkCheckpoint(ctx, sink, iter, pi)
			}
			return nil, err
		}
		if err := faultinject.Fire("walk.power"); err != nil {
			return nil, fmt.Errorf("walk: %w", err)
		}
		var danglingMass float64
		for i := 0; i < n; i++ {
			if dangling[i] {
				danglingMass += pi[i]
			}
		}
		base := (1-opt.Teleport)*danglingMass/float64(n) + opt.Teleport/float64(n)
		for i := range next {
			next[i] = base
		}
		// next += (1-t) · πᵀP, accumulated row by row.
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			w := (1 - opt.Teleport) * pi[i]
			cols, vals := p.Row(i)
			for k, c := range cols {
				next[c] += w * vals[k]
			}
		}
		var delta, sum float64
		for i := range next {
			delta += math.Abs(next[i] - pi[i])
			sum += next[i]
		}
		iters = iter + 1
		// Renormalise to guard against floating-point drift.
		inv := 1 / sum
		for i := range next {
			next[i] *= inv
		}
		pi, next = next, pi
		if sink != nil {
			if n := sink.Interval(); n > 0 && (iter+1-start)%n == 0 {
				if err := saveWalkCheckpoint(ctx, sink, iter+1, pi); err != nil {
					return nil, err
				}
				saved = iter + 1
			}
		}
		if delta < opt.Tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("walk: power iteration did not converge in %d iterations", opt.MaxIter)
}

// saveWalkCheckpoint serializes π (VEC1 format) and hands it to the
// sink, under a "walk.checkpoint" span and fault site.
func saveWalkCheckpoint(ctx context.Context, sink checkpoint.Sink, iter int, pi []float64) (err error) {
	_, sp := obs.StartSpan(ctx, "walk.checkpoint", obs.A("kernel", "walk"), obs.A("iter", iter))
	defer func() { sp.EndErr(err) }()
	if err = faultinject.Fire("walk.checkpoint"); err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	blob := checkpoint.EncodeVector(pi)
	if err = sink.Save("walk", iter, blob); err != nil {
		return fmt.Errorf("walk: saving checkpoint: %w", err)
	}
	sp.SetAttr("bytes", len(blob))
	return nil
}

// PageRankCtx computes the PageRank vector of the directed graph with
// adjacency a, using teleport probability t (the damping factor is
// 1-t): StationaryDistributionCtx applied to the natural walk.
func PageRankCtx(ctx context.Context, a *matrix.CSR, teleport float64) ([]float64, error) {
	return StationaryDistributionCtx(ctx, TransitionMatrix(a), Options{Teleport: teleport})
}
