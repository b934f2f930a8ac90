package core

import (
	"context"
	"fmt"

	"symcluster/internal/matrix"
	"symcluster/internal/walk"
)

// ReferenceSymmetrize is the pre-fusion materialized dataflow, kept as
// the executable specification of what the fused execution layer must
// reproduce bit-for-bit: every scaled factor is built as a full clone
// (ScaleRows then ScaleCols), every transpose is materialised, the
// products run through the sequential oracle matrix.MulPrunedCtx
// whatever GOMAXPROCS says, and mirrors go through matrix.Add against
// an explicit transpose. It returns the oracle's threshold kills, summed
// over its products, beside the result. The property tests in
// fused_quick_test.go hold SymmetrizeCtx bit-identical to this function,
// and its tally's kills equal to these, across methods, thresholds,
// worker counts, and the out-of-core path.
func ReferenceSymmetrize(ctx context.Context, a *matrix.CSR, method Method, opt Options) (*matrix.CSR, int64, error) {
	switch {
	case method == AAT:
		return matrix.Add(a, a.Transpose(), 1, 1), 0, nil
	case method == RandomWalk:
		teleport := opt.Teleport
		if teleport == 0 {
			teleport = walk.DefaultTeleport
		}
		p := walk.TransitionMatrix(a)
		pi, err := walk.StationaryDistributionCtx(ctx, p, walk.Options{Teleport: teleport})
		if err != nil {
			return nil, 0, fmt.Errorf("core: random-walk symmetrization: %w", err)
		}
		piP := p.ScaleRows(pi)
		return matrix.Add(piP, piP.Transpose(), 0.5, 0.5), 0, nil
	case method == Bibliometric:
		if opt.AddSelfLoops {
			a = a.AddIdentity()
		}
		at := a.Transpose()
		coupling, k1, err := referenceSelfProduct(ctx, a, opt)
		if err != nil {
			return nil, 0, err
		}
		cocitation, k2, err := referenceSelfProduct(ctx, at, opt)
		if err != nil {
			return nil, 0, err
		}
		u := matrix.Add(coupling, cocitation, 1, 1)
		if opt.DropDiagonal {
			u = u.DropDiagonal()
		}
		return u, k1 + k2, nil
	case method == DegreeDiscounted:
		if opt.Alpha < 0 || opt.Beta < 0 {
			return nil, 0, fmt.Errorf("core: negative discount exponents α=%v β=%v", opt.Alpha, opt.Beta)
		}
		if opt.AddSelfLoops {
			a = a.AddIdentity()
		}
		outDeg := a.RowCounts()
		inDeg := a.ColCounts()
		alphaFull := DiscountVector(outDeg, opt.AlphaKind, opt.Alpha, 1)
		alphaHalf := DiscountVector(outDeg, opt.AlphaKind, opt.Alpha, 0.5)
		betaFull := DiscountVector(inDeg, opt.BetaKind, opt.Beta, 1)
		betaHalf := DiscountVector(inDeg, opt.BetaKind, opt.Beta, 0.5)

		x := a.ScaleRows(alphaFull).ScaleCols(betaHalf) // D_o^{-α} A D_i^{-β/2}
		bd, k1, err := referenceSelfProduct(ctx, x, opt)
		if err != nil {
			return nil, 0, err
		}
		y := a.Transpose().ScaleRows(betaFull).ScaleCols(alphaHalf) // D_i^{-β} Aᵀ D_o^{-α/2}
		cd, k2, err := referenceSelfProduct(ctx, y, opt)
		if err != nil {
			return nil, 0, err
		}
		u := matrix.Add(bd, cd, 1, 1)
		if opt.DropDiagonal {
			u = u.DropDiagonal()
		}
		return u, k1 + k2, nil
	}
	return nil, 0, fmt.Errorf("core: unknown symmetrization method %v", method)
}

// referenceSelfProduct is the pre-fusion x·xᵀ: materialise the
// transpose and run the oracle product, which also counts its kills.
func referenceSelfProduct(ctx context.Context, x *matrix.CSR, opt Options) (*matrix.CSR, int64, error) {
	return matrix.MulPrunedCtx(ctx, x, x.Transpose(), opt.Threshold)
}
