// Package core implements the paper's primary contribution: the four
// graph symmetrizations of "Symmetrizations for Clustering Directed
// Graphs" (Satuluri & Parthasarathy, EDBT 2011).
//
// A symmetrization transforms a directed graph G with (asymmetric)
// adjacency matrix A into an undirected graph G_U with symmetric
// adjacency U, so that any off-the-shelf undirected graph clustering
// algorithm can be applied (the paper's two-stage framework, Figure 2):
//
//   - A + Aᵀ (§3.1): drop directionality, summing reciprocal weights.
//   - Random walk (§3.2): U = (ΠP + PᵀΠ)/2 where P is the transition
//     matrix and Π = diag(π) its stationary distribution. By Gleich's
//     result, NCut on G_U equals the directed NCut on G.
//   - Bibliometric (§3.3): U = AAᵀ + AᵀA — bibliographic coupling plus
//     co-citation strength, connecting nodes that share out- or
//     in-links.
//   - Degree-discounted (§3.4): the paper's proposal,
//     U_d = D_o^{-α} A D_i^{-β} Aᵀ D_o^{-α} + D_i^{-β} Aᵀ D_o^{-α} A D_i^{-β},
//     which discounts the similarity contributed through and by hub
//     nodes; α = β = 0.5 works best (Table 4).
package core

import (
	"context"
	"fmt"
	"math"

	"symcluster/internal/faultinject"
	"symcluster/internal/graph"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
	"symcluster/internal/walk"
)

// Method identifies a symmetrization method.
type Method int

const (
	// AAT is the A + Aᵀ symmetrization (§3.1).
	AAT Method = iota
	// RandomWalk is the (ΠP + PᵀΠ)/2 symmetrization (§3.2).
	RandomWalk
	// Bibliometric is the AAᵀ + AᵀA symmetrization (§3.3).
	Bibliometric
	// DegreeDiscounted is the degree-discounted symmetrization (§3.4).
	DegreeDiscounted
)

// methodNames maps each method to the name used in the paper's
// figures. Kept as data (not a switch) so the catalog of methods is
// owned by internal/pipeline's registry; this file only wires kernels.
var methodNames = map[Method]string{
	AAT:              "A+A'",
	RandomWalk:       "RandomWalk",
	Bibliometric:     "Bibliometric",
	DegreeDiscounted: "DegreeDiscounted",
}

// String returns the method's name as used in the paper's figures.
func (m Method) String() string {
	if name, ok := methodNames[m]; ok {
		return name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all symmetrizations in the order the paper's plots use.
var Methods = []Method{DegreeDiscounted, Bibliometric, AAT, RandomWalk}

// DiscountKind selects the degree-discount schedule for the similarity
// variants studied in Table 4. PowerDiscount with exponent 0.5 is the
// paper's recommended setting; LogDiscount is the IDF-style variant the
// paper reports as an insufficient penalty.
type DiscountKind int

const (
	// PowerDiscount divides by degree^exponent.
	PowerDiscount DiscountKind = iota
	// LogDiscount divides by 1 + log(degree) (IDF-style, §3.4).
	LogDiscount
)

// Options configures Symmetrize.
type Options struct {
	// Alpha is the out-degree discount exponent α (DegreeDiscounted
	// only). The paper's default is 0.5.
	Alpha float64
	// Beta is the in-degree discount exponent β (DegreeDiscounted only).
	// The paper's default is 0.5.
	Beta float64
	// AlphaKind and BetaKind select power-law or logarithmic
	// discounting. Both default to PowerDiscount; LogDiscount ignores
	// the corresponding exponent.
	AlphaKind, BetaKind DiscountKind
	// Threshold prunes product entries with absolute value below it
	// (Bibliometric and DegreeDiscounted only). Applied while each
	// output row is produced, so the unpruned product never
	// materialises.
	Threshold float64
	// AddSelfLoops sets A := A + I before Bibliometric or
	// DegreeDiscounted symmetrization, which guarantees the original
	// edges survive in the symmetrized graph (§3.3).
	AddSelfLoops bool
	// Teleport is the teleport probability for the stationary
	// distribution (RandomWalk only). Defaults to walk.DefaultTeleport.
	Teleport float64
	// DropDiagonal removes self-similarities from the product-based
	// symmetrizations. On by default in Defaults(); the diagonal of
	// AAᵀ + AᵀA is a node's own degree mass and only adds self-loops
	// that clustering algorithms must then ignore.
	DropDiagonal bool
}

// Defaults returns the paper's recommended options: α = β = 0.5,
// teleport 0.05, self-loop augmentation off, self-similarities dropped.
func Defaults() Options {
	return Options{
		Alpha:        0.5,
		Beta:         0.5,
		Teleport:     walk.DefaultTeleport,
		DropDiagonal: true,
	}
}

// Symmetrize applies the selected symmetrization to the directed graph
// g and returns the resulting undirected graph. Node labels carry over.
func Symmetrize(g *graph.Directed, method Method, opt Options) (*graph.Undirected, error) {
	return SymmetrizeCtx(context.Background(), g, method, opt)
}

// SymmetrizeCtx is Symmetrize with cancellation: ctx is threaded into
// the sparse products and power iterations underneath, which poll it at
// iteration and row-block boundaries, so a cancelled context aborts the
// symmetrization within one block of kernel work with ctx's error.
//
// The similarity products run on derived workers — GOMAXPROCS capped at
// the row tiles (matrix.DerivedWorkers) — with the same bits at every
// count; GOMAXPROCS=1 is the paper's single-threaded set-up.
//
// Each call opens a "core.symmetrize" span and records nnz in/out, the
// product workers, which accumulator path the product rows took, which
// body scanned the dense ones (scan: avx2 | go) and the number of
// entries killed by the prune threshold through the obs hooks
// (no-ops without a trace/meter in ctx).
func SymmetrizeCtx(ctx context.Context, g *graph.Directed, method Method, opt Options) (out *graph.Undirected, err error) {
	// Check once at entry so even methods with no internal poll points
	// (AAT is a single sparse add) respect an already-cancelled context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.symmetrize",
		obs.A("method", method.String()), obs.A("nnz_in", g.Adj.NNZ()),
		obs.A("workers", matrix.DerivedWorkers(g.Adj.Rows)), obs.A("scan", matrix.ScanBody()))
	ctx, prune := obs.WithPruneStats(ctx)
	defer func() {
		nnzOut := 0
		if out != nil {
			nnzOut = out.Adj.NNZ()
		}
		sp.SetAttr("nnz_out", nnzOut)
		sp.SetAttr("pruned_entries", prune.Killed())
		dense, fallbacks := prune.RowPaths()
		sp.SetAttr("dense_rows", dense)
		sp.SetAttr("select_fallbacks", fallbacks)
		sp.EndErr(err)
		if err == nil {
			obs.ObserveSymmetrize(ctx, method.String(), g.Adj.NNZ(), nnzOut, prune.Killed())
		}
	}()
	if err := faultinject.Fire("core.symmetrize"); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	build, ok := plans[method]
	if !ok {
		return nil, fmt.Errorf("core: unknown symmetrization method %v", method)
	}
	plan, err := build(opt)
	if err != nil {
		return nil, err
	}
	// The one fork on where the operands live: out of core the input
	// becomes a mapped view and s meters what stays on the heap; in
	// core s stays nil, which every oocState method treats as "the
	// heap" (outofcore.go).
	a := g.Adj
	var s *oocState
	if cfg := OutOfCoreFrom(ctx); cfg != nil {
		sp.SetAttr("out_of_core", true)
		if s, err = newOOCState(ctx, a, cfg); err != nil {
			return nil, err
		}
		defer s.close()
		a = s.a
	}
	u, err := runPlan(ctx, a, plan, opt, s)
	if err != nil {
		return nil, err
	}
	return &graph.Undirected{Adj: u, Labels: g.Labels}, nil
}

// plans maps each method to its symmetrization plan (plan.go), which
// the shared executor (executor.go) lowers in core and out of core
// alike. The wiring lives here next to the kernels; everything
// catalog-shaped (names, aliases, validation, cost models) lives in
// internal/pipeline.
var plans = map[Method]func(opt Options) (*symPlan, error){
	AAT:              aatPlan,
	RandomWalk:       randomWalkPlan,
	Bibliometric:     bibliometricPlan,
	DegreeDiscounted: degreeDiscountedPlan,
}

// symmetrizeRandomWalk returns U = (ΠP + PᵀΠ)/2 (§3.2), where P is
// the row-stochastic transition matrix of A and Π the diagonal matrix
// of its stationary distribution computed with the given teleport
// probability (0 means walk.DefaultTeleport). U has the same non-zero
// structure as A + Aᵀ; only the weights differ. ctx is polled at
// power-iteration boundaries of the stationary distribution.
func symmetrizeRandomWalk(ctx context.Context, a *matrix.CSR, teleport float64) (*matrix.CSR, error) {
	if teleport == 0 {
		teleport = walk.DefaultTeleport
	}
	p := walk.TransitionMatrix(a)
	pi, err := walk.StationaryDistributionCtx(ctx, p, walk.Options{Teleport: teleport})
	if err != nil {
		return nil, fmt.Errorf("core: random-walk symmetrization: %w", err)
	}
	piP := p.ScaleRows(pi) // ΠP
	// (ΠP + PᵀΠ)/2 = (ΠP + (ΠP)ᵀ)/2: a half-scale mirror, fused through
	// the triangle helper instead of materializing (ΠP)ᵀ.
	return matrix.AddTransposeSym(piP, 0.5), nil
}

// discountVector returns per-node factors f(d)^share where f(d) is
// d^{-exp} for PowerDiscount or (1+ln d)^{-1} for LogDiscount, and
// share ∈ {1, 0.5} splits the factor across the two sides of a
// self-product. Zero degrees map to factor 1.
func discountVector(degrees []int, kind DiscountKind, exp, share float64) []float64 {
	f := make([]float64, len(degrees))
	for i, d := range degrees {
		if d <= 0 {
			f[i] = 1
			continue
		}
		switch kind {
		case LogDiscount:
			f[i] = math.Pow(1/(1+math.Log(float64(d))), share)
		default:
			f[i] = math.Pow(float64(d), -exp*share)
		}
	}
	return f
}

// CalibrateThreshold estimates a prune threshold for the
// degree-discounted symmetrization such that the symmetrized graph's
// average degree is close to targetAvgDegree, following the sampling
// recipe of §5.3.1: compute the full similarity rows for a random
// sample of nodes and pick the threshold whose induced average sampled
// degree matches the target. sample is the number of sampled nodes;
// rows are sampled deterministically with the given seed.
func CalibrateThreshold(a *matrix.CSR, opt Options, targetAvgDegree float64, sample int, seed int64) (float64, error) {
	if targetAvgDegree <= 0 {
		return 0, fmt.Errorf("core: target average degree must be positive")
	}
	if sample <= 0 {
		sample = 100
	}
	n := a.Rows
	if sample > n {
		sample = n
	}
	// Compute the unpruned degree-discounted similarity once and read
	// off the value distribution of a deterministic sample of rows. For
	// the dataset sizes this library targets the full product is
	// affordable; the sampling bounds the selection work.
	probe := opt
	probe.Threshold = 0
	probe.DropDiagonal = true
	full, err := Symmetrize(&graph.Directed{Adj: a}, DegreeDiscounted, probe)
	if err != nil {
		return 0, err
	}
	vals := sampleRowValues(full.Adj, sample, seed)
	if len(vals) == 0 {
		return 0, fmt.Errorf("core: sampled rows have no similarities; graph too sparse to calibrate")
	}
	// Choose the threshold that keeps ~targetAvgDegree entries per
	// sampled row: the (sample·target)-th largest sampled value.
	keep := int(targetAvgDegree * float64(sample))
	if keep >= len(vals) {
		return 0, nil // keep everything
	}
	return matrix.KthLargest(vals, keep+1), nil
}

// sampleRowValues collects the entry values of `sample` deterministic
// pseudo-random rows of u.
func sampleRowValues(u *matrix.CSR, sample int, seed int64) []float64 {
	n := u.Rows
	if sample > n {
		sample = n
	}
	var vals []float64
	// Low-discrepancy deterministic row selection: stride by a large
	// odd constant mixed with the seed.
	stride := int64(2654435761)
	x := seed
	seen := make(map[int]bool, sample)
	for len(seen) < sample {
		x = x*stride + 12345
		r := int((x%int64(n) + int64(n)) % int64(n))
		if seen[r] {
			r = (r + 1) % n
			for seen[r] {
				r = (r + 1) % n
			}
		}
		seen[r] = true
		_, rowVals := u.Row(r)
		vals = append(vals, rowVals...)
	}
	return vals
}
