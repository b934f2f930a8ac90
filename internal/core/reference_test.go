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
// an explicit transpose. The property tests in fused_quick_test.go hold
// SymmetrizeCtx bit-identical to this function across methods,
// thresholds, worker counts, and the out-of-core path.
func ReferenceSymmetrize(ctx context.Context, a *matrix.CSR, method Method, opt Options) (*matrix.CSR, error) {
	switch {
	case method == AAT:
		return matrix.Add(a, a.Transpose(), 1, 1), nil
	case method == RandomWalk:
		teleport := opt.Teleport
		if teleport == 0 {
			teleport = walk.DefaultTeleport
		}
		p := walk.TransitionMatrix(a)
		pi, err := walk.StationaryDistributionCtx(ctx, p, walk.Options{Teleport: teleport})
		if err != nil {
			return nil, fmt.Errorf("core: random-walk symmetrization: %w", err)
		}
		piP := p.ScaleRows(pi)
		return matrix.Add(piP, piP.Transpose(), 0.5, 0.5), nil
	case method == Bibliometric:
		if opt.AddSelfLoops {
			a = a.AddIdentity()
		}
		at := a.Transpose()
		coupling, err := referenceSelfProduct(ctx, a, opt)
		if err != nil {
			return nil, err
		}
		cocitation, err := referenceSelfProduct(ctx, at, opt)
		if err != nil {
			return nil, err
		}
		u := matrix.Add(coupling, cocitation, 1, 1)
		if opt.DropDiagonal {
			u = u.DropDiagonal()
		}
		return u, nil
	case method == DegreeDiscounted:
		if opt.Alpha < 0 || opt.Beta < 0 {
			return nil, fmt.Errorf("core: negative discount exponents α=%v β=%v", opt.Alpha, opt.Beta)
		}
		if opt.AddSelfLoops {
			a = a.AddIdentity()
		}
		outDeg := a.RowCounts()
		inDeg := a.ColCounts()
		alphaFull := discountVector(outDeg, opt.AlphaKind, opt.Alpha, 1)
		alphaHalf := discountVector(outDeg, opt.AlphaKind, opt.Alpha, 0.5)
		betaFull := discountVector(inDeg, opt.BetaKind, opt.Beta, 1)
		betaHalf := discountVector(inDeg, opt.BetaKind, opt.Beta, 0.5)

		x := a.ScaleRows(alphaFull).ScaleCols(betaHalf) // D_o^{-α} A D_i^{-β/2}
		bd, err := referenceSelfProduct(ctx, x, opt)
		if err != nil {
			return nil, err
		}
		y := a.Transpose().ScaleRows(betaFull).ScaleCols(alphaHalf) // D_i^{-β} Aᵀ D_o^{-α/2}
		cd, err := referenceSelfProduct(ctx, y, opt)
		if err != nil {
			return nil, err
		}
		u := matrix.Add(bd, cd, 1, 1)
		if opt.DropDiagonal {
			u = u.DropDiagonal()
		}
		return u, nil
	}
	return nil, fmt.Errorf("core: unknown symmetrization method %v", method)
}

// referenceSelfProduct is the pre-fusion x·xᵀ: materialise the
// transpose and run the oracle product.
func referenceSelfProduct(ctx context.Context, x *matrix.CSR, opt Options) (*matrix.CSR, error) {
	return matrix.MulPrunedCtx(ctx, x, x.Transpose(), opt.Threshold)
}
