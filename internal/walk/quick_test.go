package walk

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
)

// digraphGen generates random directed adjacencies for testing/quick.
type digraphGen struct {
	A *matrix.CSR
}

// Generate implements quick.Generator.
func (digraphGen) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(25)
	b := matrix.NewBuilder(n, n)
	edges := rng.Intn(4 * n)
	for e := 0; e < edges; e++ {
		b.Add(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
	}
	return reflect.ValueOf(digraphGen{A: b.Build()})
}

func TestQuickTransitionRowsStochasticOrEmpty(t *testing.T) {
	f := func(g digraphGen) bool {
		p := TransitionMatrix(g.A)
		for i := 0; i < p.Rows; i++ {
			_, vals := p.Row(i)
			if len(vals) == 0 {
				continue
			}
			var sum float64
			for _, v := range vals {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStationaryIsDistribution(t *testing.T) {
	f := func(g digraphGen) bool {
		pi, err := StationaryDistributionCtx(context.Background(), TransitionMatrix(g.A), Options{Teleport: 0.05})
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pi {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
