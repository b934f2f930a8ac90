package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
)

// digraphGen generates random directed adjacency matrices with
// non-negative unit weights for testing/quick.
type digraphGen struct {
	A *matrix.CSR
}

// Generate implements quick.Generator.
func (digraphGen) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 2 + rng.Intn(14)
	b := matrix.NewBuilder(n, n)
	edges := rng.Intn(3 * n)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.Add(u, v, 1)
		}
	}
	m := b.Build()
	// Deduplicate weights back to 1 (Builder sums duplicates).
	for i := range m.Val {
		m.Val[i] = 1
	}
	return reflect.ValueOf(digraphGen{A: m})
}

var quickCfg = &quick.Config{MaxCount: 150}

// symmetrizeQuick runs one method's kernel with the paper defaults
// (teleport 0.05, diagonal dropped), dispatching through the same
// lowering production code uses.
func symmetrizeQuick(m Method, a *matrix.CSR) (*matrix.CSR, error) {
	u, _, err := symmetrizeAdj(context.Background(), a, m, Defaults(), nil)
	return u, err
}

func TestQuickAllMethodsSymmetric(t *testing.T) {
	f := func(g digraphGen) bool {
		for _, m := range allMethods {
			u, err := symmetrizeQuick(m, g.A)
			if err != nil || !u.IsSymmetric(1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllMethodsNonNegative(t *testing.T) {
	f := func(g digraphGen) bool {
		for _, m := range allMethods {
			u, err := symmetrizeQuick(m, g.A)
			if err != nil {
				return false
			}
			for _, v := range u.Val {
				if v < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeDiscountedDominatedByBibliometric(t *testing.T) {
	// With α, β ≥ 0 every discount factor is ≤ 1, so each
	// degree-discounted entry is bounded by the bibliometric entry.
	f := func(g digraphGen) bool {
		bib := symmetrizeBibliometric(g.A, Options{DropDiagonal: true})
		dd, err := symmetrizeDD(g.A, Defaults())
		if err != nil {
			return false
		}
		for i := 0; i < dd.Rows; i++ {
			cols, vals := dd.Row(i)
			for k, c := range cols {
				if vals[k] > bib.At(i, int(c))+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAATStructureIsUnionOfDirections(t *testing.T) {
	f := func(g digraphGen) bool {
		u := symmetrizeAAT(g.A)
		for i := 0; i < u.Rows; i++ {
			cols, _ := u.Row(i)
			for _, c := range cols {
				j := int(c)
				if g.A.At(i, j) == 0 && g.A.At(j, i) == 0 {
					return false // edge appeared from nowhere
				}
			}
		}
		// And every original edge survives.
		for i := 0; i < g.A.Rows; i++ {
			cols, _ := g.A.Row(i)
			for _, c := range cols {
				if u.At(i, int(c)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomWalkMassConservation(t *testing.T) {
	// Total weight of (ΠP + PᵀΠ)/2 equals Σπ over non-dangling rows
	// ≤ 1, and equals 1 when there are no dangling nodes.
	f := func(g digraphGen) bool {
		u, err := symmetrizeRW(g.A, 0.05)
		if err != nil {
			return false
		}
		var total float64
		for _, v := range u.Val {
			total += v
		}
		return total <= 1+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickThresholdMonotone(t *testing.T) {
	// Raising the prune threshold never adds entries.
	f := func(g digraphGen, lowRaw, highRaw uint8) bool {
		lo := float64(lowRaw) / 255
		hi := lo + float64(highRaw)/255
		optLo := Defaults()
		optLo.Threshold = lo
		optHi := Defaults()
		optHi.Threshold = hi
		uLo, err1 := symmetrizeDD(g.A, optLo)
		uHi, err2 := symmetrizeDD(g.A, optHi)
		if err1 != nil || err2 != nil {
			return false
		}
		return uHi.NNZ() <= uLo.NNZ()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSelfLoopOptionPreservesEdges(t *testing.T) {
	// §3.3: with A := A + I, the symmetrized graph keeps every original
	// edge for both product methods.
	f := func(g digraphGen) bool {
		for _, m := range []Method{Bibliometric, DegreeDiscounted} {
			opt := Defaults()
			opt.AddSelfLoops = true
			var u *matrix.CSR
			var err error
			if m == Bibliometric {
				u = symmetrizeBibliometric(g.A, Options{AddSelfLoops: true, DropDiagonal: true})
			} else {
				u, err = symmetrizeDD(g.A, opt)
			}
			if err != nil {
				return false
			}
			for i := 0; i < g.A.Rows; i++ {
				cols, _ := g.A.Row(i)
				for _, c := range cols {
					if u.At(i, int(c)) <= 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDiscountVectorRanges(t *testing.T) {
	f := func(degsRaw []uint16, expRaw uint8) bool {
		if len(degsRaw) == 0 {
			return true
		}
		degs := make([]int, len(degsRaw))
		for i, d := range degsRaw {
			degs[i] = int(d % 1000)
		}
		exp := float64(expRaw) / 128 // 0..2
		for _, kind := range []DiscountKind{PowerDiscount, LogDiscount} {
			v := DiscountVector(degs, kind, exp, 1)
			for i, f := range v {
				if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
					return false
				}
				if degs[i] <= 1 && kind == LogDiscount && f != 1 {
					// log discount of degree 1 is 1/(1+ln 1) = 1;
					// degree 0 maps to 1.
					return false
				}
				if f > 1+1e-12 {
					return false // discounts never amplify
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
