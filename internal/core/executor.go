package core

import (
	"context"

	"symcluster/internal/matrix"
)

// runPlan lowers a symmetrization plan to one of two execution
// strategies sharing the same arithmetic:
//
//   - In-core (s == nil): the fused kernels of internal/matrix consume
//     the heap-resident adjacency and one shared heap transpose; the
//     diagonal scalings and prune threshold fold into the tiled SpGEMM
//     accumulator loop, so no scaled factor matrix is ever
//     materialised, and mirrors go through the triangle-and-mirror
//     helper instead of a full transpose.
//
//   - Out-of-core (s != nil): the adjacency and its transpose live in
//     mmap'd binary CSR files (the transpose built by external sort)
//     and the same fused kernels stream rows from the mapped views, so
//     peak resident memory is the pruned products plus the degree
//     vectors and the product's pre-scaled operand values — metered
//     against the configured budget.
//
// Both lowerings are bit-identical to each other and to the
// materialized pre-fusion dataflow: the fused kernels reproduce the
// ScaleRows-then-ScaleCols value order and Gustavson accumulation
// order exactly (see the invariants on matrix.MulXXTScaledPrunedCtx
// and matrix.AddTransposeSym, and DESIGN.md §15).
func runPlan(ctx context.Context, a *matrix.CSR, plan *symPlan, opt Options, s *oocState) (*matrix.CSR, error) {
	var err error
	if plan.addSelfLoops {
		if s != nil {
			a, err = s.augmented(ctx, opt)
			if err != nil {
				return nil, err
			}
		} else {
			a = a.AddIdentity()
		}
	}

	if plan.mirror {
		if s != nil {
			// File-streamed mirror: the transpose never touches the heap,
			// only the (input-sized) sum does.
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
		return matrix.AddTransposeSym(a, plan.mirrorScale), nil
	}

	// Product terms. Degrees are read once from the (augmented) input;
	// one transpose is shared by every term, since a transposed term's
	// own transpose is the original matrix again, bit-exactly.
	var outDeg, inDeg []int
	if plan.needsDegrees() {
		outDeg = a.RowCounts()
		inDeg = a.ColCounts()
		if s != nil {
			// Two []int, and the nnz-long scaled-value vector a scaled
			// product holds on the heap (one term's at a time).
			if err := s.charge(16*int64(a.Rows) + 8*int64(a.NNZ())); err != nil {
				return nil, err
			}
		}
	}
	var at *matrix.CSR
	if s != nil {
		at, err = s.transpose(ctx, a, "at.csr")
	} else {
		at = a.Transpose()
	}
	if err != nil {
		return nil, err
	}

	var u *matrix.CSR
	for _, term := range plan.terms {
		x, xt := a, at
		if term.transposed {
			x, xt = at, a
		}
		rs := resolveScale(term.rowScale, outDeg, inDeg)
		cs := resolveScale(term.colScale, outDeg, inDeg)
		// The one product every product-shaped symmetrization lowers to,
		// in-core or out-of-core (the kernel only reads rows, so heap and
		// mapped operands are alike), with the scalings and threshold
		// folded in, on as many workers as the engine derives.
		p, err := matrix.MulXXTScaledPrunedCtx(ctx, x, xt, rs, cs, opt.Threshold, 0)
		if err != nil {
			return nil, err
		}
		if s != nil {
			if err := s.charge(matBytes(p)); err != nil {
				return nil, err
			}
		}
		if u == nil {
			u = p
		} else {
			u = matrix.Add(u, p, 1, 1)
		}
	}
	if plan.dropDiagonal {
		u = u.DropDiagonal()
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
