package core

import "fmt"

// A symmetrization plan is the declarative middle layer between the
// method catalog and the kernels: each method describes *what* to
// compute — optional self-loop augmentation, then a mirror
// (scale·A + scale·Aᵀ), a stationary-distribution-weighted mirror, or
// a sum of scaled self-product terms with diagonal handling — and the
// executor in executor.go lowers that one description with the
// operands on the heap or in memory-mapped files. Both placements
// therefore share a single dataflow definition.

// degreeSide selects which unweighted degree vector a scaleSpec is
// derived from.
type degreeSide int

const (
	outDegrees degreeSide = iota
	inDegrees
)

// scaleSpec describes one diagonal discount factor symbolically:
// f(d)^share over the chosen degree vector, resolved to a concrete
// []float64 by the executor via discountVector once degrees are known.
// A nil *scaleSpec is the identity (no scaling).
type scaleSpec struct {
	side  degreeSide
	kind  DiscountKind
	exp   float64
	share float64
}

// productTerm is one fused self-product contribution
// S = X·Xᵀ with X = diag(rowScale)·base·diag(colScale), where base is
// the (augmented) adjacency A, or Aᵀ when transposed is set. The
// executor provides both A and one shared Aᵀ, so a transposed term
// costs no extra transpose: (Aᵀ)ᵀ is A again, bit-exactly, since
// transposition copies values unchanged.
type productTerm struct {
	transposed bool
	rowScale   *scaleSpec
	colScale   *scaleSpec
}

// symPlan is a complete symmetrization dataflow. Exactly one of
// mirror, randomWalk or terms is active: mirror computes
// mirrorScale·(A + Aᵀ); randomWalk computes (ΠP + PᵀΠ)/2 under the
// given teleport; terms sums the listed fused self-products and then
// applies dropDiagonal.
type symPlan struct {
	addSelfLoops bool
	mirror       bool
	mirrorScale  float64
	randomWalk   bool
	teleport     float64
	terms        []productTerm
	dropDiagonal bool
}

// aatPlan is U = A + Aᵀ (§3.1): a pure mirror with unit scale.
// Self-loop augmentation and diagonal dropping are product-method
// concepts and do not apply.
func aatPlan(Options) (*symPlan, error) {
	return &symPlan{mirror: true, mirrorScale: 1}, nil
}

// randomWalkPlan is U = (ΠP + PᵀΠ)/2 (§3.2). Its core is an iterative
// stationary-distribution solve, not a product, so the executor hands
// it to symmetrizeRandomWalk whole.
func randomWalkPlan(opt Options) (*symPlan, error) {
	return &symPlan{randomWalk: true, teleport: opt.Teleport}, nil
}

// bibliometricPlan is U = AAᵀ + AᵀA (§3.3): two unscaled self-product
// terms — bibliographic coupling over A, co-citation over Aᵀ. The
// threshold is applied to each term as it is formed; an entry present
// in both survives if either contribution passes, matching the paper's
// integer thresholds on shared-link counts (Table 2).
func bibliometricPlan(opt Options) (*symPlan, error) {
	return &symPlan{
		addSelfLoops: opt.AddSelfLoops,
		terms: []productTerm{
			{transposed: false}, // AAᵀ
			{transposed: true},  // AᵀA
		},
		dropDiagonal: opt.DropDiagonal,
	}, nil
}

// degreeDiscountedPlan is the paper's proposal (§3.4):
//
//	U_d = D_o^{-α} A D_i^{-β} Aᵀ D_o^{-α} + D_i^{-β} Aᵀ D_o^{-α} A D_i^{-β}
//
// expressed as two scaled self-products: with X = D_o^{-α} A D_i^{-β/2}
// the coupling term is X·Xᵀ, and with Y = D_i^{-β} Aᵀ D_o^{-α/2} the
// co-citation term is Y·Yᵀ — the half-exponent column factor is the
// full middle discount split across the two sides of each product.
// Neither X nor Y is ever materialised: the factors and the prune
// threshold fold into the self-product kernel. Degrees are the
// unweighted in/out degrees of A after optional self-loop augmentation.
func degreeDiscountedPlan(opt Options) (*symPlan, error) {
	if opt.Alpha < 0 || opt.Beta < 0 {
		return nil, fmt.Errorf("core: negative discount exponents α=%v β=%v", opt.Alpha, opt.Beta)
	}
	alphaFull := &scaleSpec{side: outDegrees, kind: opt.AlphaKind, exp: opt.Alpha, share: 1}
	alphaHalf := &scaleSpec{side: outDegrees, kind: opt.AlphaKind, exp: opt.Alpha, share: 0.5}
	betaFull := &scaleSpec{side: inDegrees, kind: opt.BetaKind, exp: opt.Beta, share: 1}
	betaHalf := &scaleSpec{side: inDegrees, kind: opt.BetaKind, exp: opt.Beta, share: 0.5}
	return &symPlan{
		addSelfLoops: opt.AddSelfLoops,
		terms: []productTerm{
			{transposed: false, rowScale: alphaFull, colScale: betaHalf}, // X·Xᵀ
			{transposed: true, rowScale: betaFull, colScale: alphaHalf},  // Y·Yᵀ
		},
		dropDiagonal: opt.DropDiagonal,
	}, nil
}

// needsDegrees reports whether lowering the plan requires the degree
// vectors (any term carries a scale spec). Gates the out-of-core
// resident-budget charge for the vectors.
func (p *symPlan) needsDegrees() bool {
	for _, t := range p.terms {
		if t.rowScale != nil || t.colScale != nil {
			return true
		}
	}
	return false
}
