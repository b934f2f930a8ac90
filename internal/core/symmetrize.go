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
	"slices"

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
// figures. The catalog of methods — which exist, their wire names and
// plot order — is internal/pipeline's registry; this file only wires
// kernels.
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

// SymmetrizeCtx applies the selected symmetrization to the directed
// graph g and returns the resulting undirected graph; node labels carry
// over. ctx is threaded into the sparse products and power iterations
// underneath, which poll it at iteration and row-block boundaries, so a
// cancelled context aborts the symmetrization within one block of
// kernel work with ctx's error.
//
// The similarity products run on derived workers — GOMAXPROCS capped at
// the row tiles (matrix.DerivedWorkers) — with the same bits at every
// count; GOMAXPROCS=1 is the paper's single-threaded set-up.
//
// Each call opens a "core.symmetrize" span (a no-op without a trace in
// ctx) that records nnz in/out, the product workers, which body scans
// dense rows (scan: avx2 | go), the tally the products return — the
// entries the prune threshold killed (pruned_entries), the rows
// accumulated dense and the top-k fallbacks — and, out of core, the
// peak of the heap-resident intermediates (resident_peak_bytes).
func SymmetrizeCtx(ctx context.Context, g *graph.Directed, method Method, opt Options) (out *graph.Undirected, err error) {
	// Check once at entry so even methods with no internal poll points
	// (AAT is a single sparse add) respect an already-cancelled context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.symmetrize",
		obs.A("method", method.String()), obs.A("nnz_in", g.Adj.NNZ()),
		obs.A("workers", matrix.DerivedWorkers(g.Adj.Rows)), obs.A("scan", matrix.ScanBody()))
	var tally matrix.Tally
	defer func() {
		nnzOut := 0
		if out != nil {
			nnzOut = out.Adj.NNZ()
		}
		sp.SetAttr("nnz_out", nnzOut)
		sp.SetAttr("pruned_entries", tally.Killed)
		sp.SetAttr("dense_rows", tally.DenseRows)
		sp.SetAttr("select_fallbacks", tally.Fallbacks)
		sp.EndErr(err)
	}()
	if err := faultinject.Fire("core.symmetrize"); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The one fork on where the operands live: out of core the input
	// becomes a mapped view and s meters what stays on the heap; in
	// core s stays nil, which every oocState method treats as "the
	// heap" (outofcore.go).
	a := g.Adj
	var s *oocState
	if cfg := outOfCoreFrom(ctx); cfg != nil {
		sp.SetAttr("out_of_core", true)
		if s, err = newOOCState(ctx, a, cfg); err != nil {
			return nil, err
		}
		defer func() {
			sp.SetAttr("resident_peak_bytes", s.peak)
			s.close()
		}()
		a = s.a
	}
	var u *matrix.CSR
	if u, tally, err = symmetrize(ctx, a, method, opt, s); err != nil {
		return nil, err
	}
	return &graph.Undirected{Adj: u, Labels: g.Labels}, nil
}

// symmetrize lowers one method onto the kernels. Where the operands
// live is carried by s, and the arithmetic does not depend on it: in
// core (s == nil) the kernels read the heap-resident adjacency; out of
// core a is a mapped view, the transpose and the self-loop-augmented
// copy are mmap'd scratch files, and what stays on the heap is metered
// by s.charge against the configured budget. Both placements are
// bit-identical to each other and to the materialized pre-fusion
// dataflow (ReferenceSymmetrize; DESIGN.md §15). The tally is the
// products' (zero for the methods that run none), also on error.
func symmetrize(ctx context.Context, a *matrix.CSR, method Method, opt Options, s *oocState) (*matrix.CSR, matrix.Tally, error) {
	var none matrix.Tally
	switch method {
	case AAT:
		u, err := s.mirror(ctx, a)
		return u, none, err
	case RandomWalk:
		// The transition matrix, ΠP and the result are all sized like
		// the input: metered, but there is no product blow-up to keep on
		// disk, so the kernel reads the (possibly mapped) rows directly.
		if err := s.charge(3 * matBytes(a)); err != nil {
			return nil, none, err
		}
		u, err := symmetrizeRandomWalk(ctx, a, opt.Teleport)
		return u, none, err
	case Bibliometric, DegreeDiscounted:
		return products(ctx, a, method, opt, s)
	}
	return nil, none, fmt.Errorf("core: unknown symmetrization method %v", method)
}

// products lowers the two product symmetrizations, U = X·Xᵀ + Y·Yᵀ
// over the (optionally self-loop-augmented) A, in one fused call: the
// terms' upper triangles are summed as their rows flush, each running
// sum metered, and the sum is mirrored once — a mirror copies values,
// so that is the sum of the mirrored products bit for bit. The prune
// threshold applies to each term as it is formed — an entry present in
// both survives if either contribution passes, matching the paper's
// integer thresholds on shared-link counts (Table 2) — and the diagonal
// is dropped as the terms are summed. Neither scaled factor is ever
// materialised: the discounts fold into the product kernel. It returns
// the terms' tally, which on error holds the terms that completed.
func products(ctx context.Context, a *matrix.CSR, method Method, opt Options, s *oocState) (*matrix.CSR, matrix.Tally, error) {
	var none matrix.Tally
	if method == DegreeDiscounted && (opt.Alpha < 0 || opt.Beta < 0) {
		return nil, none, fmt.Errorf("core: negative discount exponents α=%v β=%v", opt.Alpha, opt.Beta)
	}
	var err error
	if opt.AddSelfLoops {
		if a, err = s.augmented(ctx, a); err != nil {
			return nil, none, err
		}
	}
	// What a product holds on the heap beside its result (one term's at
	// a time): an nnz-long vector of entry offsets and, when it scales,
	// one of scaled values; the two []int of degrees.
	held := 4 * int64(a.NNZ())
	if method == DegreeDiscounted {
		held += 16*int64(a.Rows) + 8*int64(a.NNZ())
	}
	if err := s.charge(held); err != nil {
		return nil, none, err
	}
	at, err := s.transpose(ctx, a, "at.csr")
	if err != nil {
		return nil, none, err
	}
	up, tally, err := matrix.SumXXTScaledPrunedUpperCtx(ctx, a.Rows, xxtTerms(a, at, method, opt), opt.Threshold, opt.DropDiagonal,
		func(sum *matrix.CSR) error { return s.charge(matBytes(sum)) })
	if err != nil {
		return nil, tally, err
	}
	u := matrix.MirrorUpper(up)
	if err := s.charge(matBytes(u)); err != nil {
		return nil, tally, err
	}
	return u, tally, nil
}

// xxtTerms is U's two self-products over A and one shared Aᵀ —
// (Aᵀ)ᵀ is A again, bit-exactly, since transposition copies values.
// Bibliometric (§3.3) is AAᵀ + AᵀA, bibliographic coupling plus
// co-citation, unscaled. DegreeDiscounted (§3.4),
//
//	U_d = D_o^{-α} A D_i^{-β} Aᵀ D_o^{-α} + D_i^{-β} Aᵀ D_o^{-α} A D_i^{-β},
//
// is X·Xᵀ + Y·Yᵀ with X = D_o^{-α}·A·D_i^{-β/2} and
// Y = D_i^{-β}·Aᵀ·D_o^{-α/2}: the middle discount split across the two
// sides of each product, over the unweighted degrees of A.
func xxtTerms(a, at *matrix.CSR, method Method, opt Options) []matrix.XXTTerm {
	x := matrix.XXTTerm{X: a, XT: at}
	y := matrix.XXTTerm{X: at, XT: a}
	if method == DegreeDiscounted {
		outDeg, inDeg := a.RowCounts(), a.ColCounts()
		x.RowScale = DiscountVector(outDeg, opt.AlphaKind, opt.Alpha, 1)
		x.ColScale = DiscountVector(inDeg, opt.BetaKind, opt.Beta, 0.5)
		y.RowScale = DiscountVector(inDeg, opt.BetaKind, opt.Beta, 1)
		y.ColScale = DiscountVector(outDeg, opt.AlphaKind, opt.Alpha, 0.5)
	}
	return []matrix.XXTTerm{x, y}
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

// DiscountVector returns per-node factors f(d)^share where f(d) is
// d^{-exp} for PowerDiscount or (1+ln d)^{-1} for LogDiscount, and
// share ∈ {1, 0.5} splits the factor across the two sides of a
// self-product. Zero degrees map to factor 1. Each distinct degree's
// factor is computed once: the same call on the same argument.
func DiscountVector(degrees []int, kind DiscountKind, exp, share float64) []float64 {
	f, seen := make([]float64, len(degrees)), map[int]float64{}
	for i, d := range degrees {
		if d <= 0 {
			f[i] = 1
			continue
		}
		v, ok := seen[d]
		if !ok {
			switch kind {
			case LogDiscount:
				v = math.Pow(1/(1+math.Log(float64(d))), share)
			default:
				v = math.Pow(float64(d), -exp*share)
			}
			seen[d] = v
		}
		f[i] = v
	}
	return f
}

// CalibrateThreshold estimates a prune threshold for the
// degree-discounted symmetrization such that the symmetrized graph's
// average degree is close to targetAvgDegree, following the sampling
// recipe of §5.3.1: compute the full similarity rows for a random
// sample of nodes and pick the threshold whose induced average sampled
// degree matches the target. sample is the number of sampled nodes;
// rows are sampled deterministically with the given seed. ctx bounds the
// one unpruned symmetrization it runs.
func CalibrateThresholdCtx(ctx context.Context, a *matrix.CSR, opt Options, targetAvgDegree float64, sample int, seed int64) (float64, error) {
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
	full, err := SymmetrizeCtx(ctx, &graph.Directed{Adj: a}, DegreeDiscounted, probe)
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
	slices.Sort(vals)
	return vals[len(vals)-1-keep], nil
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
