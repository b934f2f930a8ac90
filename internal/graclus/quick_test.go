package graclus

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

func TestQuickClusterAlwaysValid(t *testing.T) {
	f := func(g symGen, kRaw uint8, seed int64) bool {
		n := g.Adj.Rows
		k := 1 + int(kRaw)%n
		res, err := ClusterCtx(context.Background(), g.Adj, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if len(res.Assign) != n || res.K != k {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= k {
				return false
			}
		}
		// NCut is within [0, k].
		ncut := NCut(g.Adj, res.Assign, k)
		return ncut >= 0 && ncut <= float64(k)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNCutMatchesEvalConvention(t *testing.T) {
	// Internal NCut and a recomputation from scratch agree.
	f := func(g symGen, seed int64) bool {
		n := g.Adj.Rows
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		k := 2
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		got := NCut(g.Adj, assign, k)
		// Reference: per cluster, cut/deg.
		cut := make([]float64, k)
		deg := make([]float64, k)
		for i := 0; i < n; i++ {
			cols, vals := g.Adj.Row(i)
			for t2, c := range cols {
				deg[assign[i]] += vals[t2]
				if assign[c] != assign[i] {
					cut[assign[i]] += vals[t2]
				}
			}
		}
		var want float64
		for c := 0; c < k; c++ {
			if deg[c] > 0 {
				want += cut[c] / deg[c]
			}
		}
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
