package core

import (
	"context"

	"symcluster/internal/matrix"
)

// runPlan lowers a symmetrization plan. Where the operands live is
// carried by s, and the arithmetic does not depend on it:
//
//   - In core (s == nil) the fused kernels of internal/matrix consume
//     the heap-resident adjacency and one shared heap transpose; the
//     diagonal scalings and prune threshold fold into the tiled SpGEMM
//     accumulator loop, so no scaled factor matrix is ever
//     materialised.
//
//   - Out of core (s != nil) a is a mapped view, the transpose and the
//     self-loop-augmented copy are mmap'd scratch files (the transpose
//     built by external sort), and the same kernels stream rows from
//     them, so peak resident memory is the pruned running sum plus the
//     degree vectors and one term's per-entry vectors (pre-scaled
//     operand values, entry offsets) — metered by s.charge against the
//     configured budget.
//
// A nil *oocState answers augmented, transpose and charge with the
// heap behaviour (outofcore.go), so the only step that forks here is
// the mirror: in core it goes through the triangle-and-mirror helper
// and never builds Aᵀ; out of core the transpose is a file and only
// the input-sized sum touches the heap. Both placements are
// bit-identical to each other and to the materialized pre-fusion
// dataflow: the fused kernels reproduce the ScaleRows-then-ScaleCols
// value order and Gustavson accumulation order exactly (see the
// invariants on matrix.SumXXTScaledPrunedUpperCtx and
// matrix.AddTransposeSym, and DESIGN.md §15).
func runPlan(ctx context.Context, a *matrix.CSR, plan *symPlan, opt Options, s *oocState) (*matrix.CSR, error) {
	var err error
	if plan.addSelfLoops {
		if a, err = s.augmented(ctx, a); err != nil {
			return nil, err
		}
	}

	if plan.randomWalk {
		// The transition matrix, ΠP and the result are all sized like
		// the input: metered, but there is no product blow-up to keep on
		// disk, so the kernel reads the (possibly mapped) rows directly.
		if err := s.charge(3 * matBytes(a)); err != nil {
			return nil, err
		}
		return symmetrizeRandomWalk(ctx, a, plan.teleport)
	}

	if plan.mirror {
		if s == nil {
			return matrix.AddTransposeSym(a, plan.mirrorScale), nil
		}
		at, err := s.transpose(ctx, a, "at.csr")
		if err != nil {
			return nil, err
		}
		u := matrix.Add(a, at, plan.mirrorScale, plan.mirrorScale)
		if err := s.charge(matBytes(u)); err != nil {
			return nil, err
		}
		return u, nil
	}

	// Product terms. Degrees are read once from the (augmented) input;
	// one transpose is shared by every term, since a transposed term's
	// own transpose is the original matrix again, bit-exactly.
	// What a product holds on the heap beside its result (one term's at
	// a time): an nnz-long vector of entry offsets and, when it scales,
	// one of scaled values; the two []int of degrees.
	var outDeg, inDeg []int
	held := 4 * int64(a.NNZ())
	if plan.needsDegrees() {
		outDeg = a.RowCounts()
		inDeg = a.ColCounts()
		held += 16*int64(a.Rows) + 8*int64(a.NNZ())
	}
	if err := s.charge(held); err != nil {
		return nil, err
	}
	at, err := s.transpose(ctx, a, "at.csr")
	if err != nil {
		return nil, err
	}

	// The one call every product-shaped symmetrization lowers to (the
	// kernel only reads rows, so heap and mapped operands are alike): the
	// terms' upper triangles, summed as their rows flush, each running sum
	// metered; a mirror copies values, so mirroring the sum once is the
	// sum of the mirrored products bit for bit.
	terms := make([]matrix.XXTTerm, len(plan.terms))
	for k, term := range plan.terms {
		x, xt := a, at
		if term.transposed {
			x, xt = at, a
		}
		terms[k] = matrix.XXTTerm{X: x, XT: xt,
			RowScale: resolveScale(term.rowScale, outDeg, inDeg), ColScale: resolveScale(term.colScale, outDeg, inDeg)}
	}
	up, err := matrix.SumXXTScaledPrunedUpperCtx(ctx, a.Rows, terms, opt.Threshold, plan.dropDiagonal,
		func(sum *matrix.CSR) error { return s.charge(matBytes(sum)) })
	if err != nil {
		return nil, err
	}
	u := matrix.MirrorUpper(up)
	if err := s.charge(matBytes(u)); err != nil {
		return nil, err
	}
	return u, nil
}

// resolveScale lowers a symbolic scale spec to the concrete per-node
// factor vector. nil spec means identity (nil vector).
func resolveScale(spec *scaleSpec, outDeg, inDeg []int) []float64 {
	if spec == nil {
		return nil
	}
	deg := outDeg
	if spec.side == inDegrees {
		deg = inDeg
	}
	return discountVector(deg, spec.kind, spec.exp, spec.share)
}
