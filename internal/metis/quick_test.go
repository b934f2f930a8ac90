package metis

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
)

// symGen generates random symmetric weighted graphs for testing/quick.
type symGen struct {
	Adj *matrix.CSR
}

// Generate implements quick.Generator.
func (symGen) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 2 + rng.Intn(40)
	b := matrix.NewBuilder(n, n)
	edges := rng.Intn(4 * n)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := 0.5 + rng.Float64()
		b.Add(u, v, w)
		b.Add(v, u, w)
	}
	return reflect.ValueOf(symGen{Adj: b.Build()})
}

func TestQuickPartitionAlwaysValid(t *testing.T) {
	f := func(g symGen, kRaw uint8, seed int64) bool {
		n := g.Adj.Rows
		k := 1 + int(kRaw)%n
		res, err := PartitionCtx(context.Background(), g.Adj, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if len(res.Assign) != n || res.K != k {
			return false
		}
		seen := make([]bool, k)
		for _, a := range res.Assign {
			if a < 0 || a >= k {
				return false
			}
			seen[a] = true
		}
		for _, s := range seen {
			if !s {
				return false // empty part
			}
		}
		return EdgeCut(g.Adj, res.Assign) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEdgeCutBounds(t *testing.T) {
	// 0 <= cut <= total edge weight, and the all-in-one partition cuts
	// nothing.
	f := func(g symGen, seed int64) bool {
		n := g.Adj.Rows
		var total float64
		for _, v := range g.Adj.Val {
			total += v
		}
		total /= 2
		one := make([]int, n)
		if EdgeCut(g.Adj, one) != 0 {
			return false
		}
		if n < 2 {
			return true
		}
		res, err := PartitionCtx(context.Background(), g.Adj, 2, Options{Seed: seed})
		if err != nil {
			return false
		}
		cut := EdgeCut(g.Adj, res.Assign)
		return cut >= 0 && cut <= total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
