package graclus

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
)

// refineReference is refine as it stood before the pass loop was
// rewritten (a first-touch branch in the row scan, three divisions per
// candidate, slices per level), kept verbatim but for returning its
// cluster totals: the oracle TestQuickRefineMatchesReference holds
// refine to, bit for bit.
func refineReference(ctx context.Context, adj *matrix.CSR, assign []int, k, maxPasses int) (_ []int, links, degs []float64) {
	n := adj.Rows
	deg := adj.RowSums()

	clusterDeg := make([]float64, k)
	clusterLinks := make([]float64, k) // Σ internal edge weight, both directions + self-loops
	clusterSize := make([]int, k)
	for i := 0; i < n; i++ {
		c := assign[i]
		clusterDeg[c] += deg[i]
		clusterSize[c]++
		cols, vals := adj.Row(i)
		for t, cc := range cols {
			if assign[cc] == c {
				clusterLinks[c] += vals[t]
			}
		}
	}

	linkTo := make([]float64, k)
	var touched []int
	for pass := 0; pass < maxPasses; pass++ {
		if ctx.Err() != nil {
			break
		}
		moved := 0
		for i := 0; i < n; i++ {
			a := assign[i]
			if clusterSize[a] <= 1 {
				continue // never empty a cluster
			}
			cols, vals := adj.Row(i)
			var selfLoop float64
			touched = touched[:0]
			for t, c := range cols {
				if int(c) == i {
					selfLoop = vals[t]
					continue
				}
				cc := assign[c]
				if linkTo[cc] == 0 {
					touched = append(touched, cc)
				}
				linkTo[cc] += vals[t]
			}
			// Objective value contributed by clusters a and b before and
			// after moving i from a to b, using
			// Σ_c links(c)/deg(c) (to be maximised).
			cur := quotient(clusterLinks[a], clusterDeg[a])
			bestDelta := 0.0
			bestB := -1
			for _, b := range touched {
				if b == a {
					continue
				}
				curB := quotient(clusterLinks[b], clusterDeg[b])
				// Moving i: links(a) loses 2·linkTo[a] + selfLoop;
				// links(b) gains 2·linkTo[b] + selfLoop.
				newA := quotient(clusterLinks[a]-2*linkTo[a]-selfLoop, clusterDeg[a]-deg[i])
				newB := quotient(clusterLinks[b]+2*linkTo[b]+selfLoop, clusterDeg[b]+deg[i])
				delta := (newA + newB) - (cur + curB)
				if delta > bestDelta+1e-12 {
					bestDelta = delta
					bestB = b
				}
			}
			if bestB >= 0 {
				b := bestB
				clusterLinks[a] -= 2*linkTo[a] + selfLoop
				clusterLinks[b] += 2*linkTo[b] + selfLoop
				clusterDeg[a] -= deg[i]
				clusterDeg[b] += deg[i]
				clusterSize[a]--
				clusterSize[b]++
				assign[i] = b
				moved++
			}
			for _, c := range touched {
				linkTo[c] = 0
			}
		}
		if moved == 0 {
			break
		}
	}
	return assign, clusterLinks, clusterDeg
}

// refineCase is one refine call: a symmetric graph assembled by hand,
// since matrix.Builder drops the stored zeros the edge-list reader lets
// through, a cluster count, and two assignments.
type refineCase struct {
	Adj          *matrix.CSR
	K, Passes    int
	Warm, Assign []int
}

// Generate implements quick.Generator: inexact weights, self-loops,
// stored 0 and -0 entries — on one graph in three a hub whose whole row
// is zeros, many of them towards one cluster, so that it records more
// clusters than k — k from 2 to past the longest row, a cluster of one
// node, and a pass budget of 1 on every other case.
func (refineCase) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 3 + rng.Intn(40)
	w := make([][]float64, n)
	has := make([][]bool, n)
	for i := range w {
		w[i], has[i] = make([]float64, n), make([]bool, n)
	}
	weight := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 1.0 / 3
		}
		return 3 * rng.Float64()
	}
	for e := rng.Intn(5 * n); e > 0; e-- {
		u, v := rng.Intn(n), rng.Intn(n) // u == v: a self-loop
		w[u][v], has[u][v] = weight(), true
		w[v][u], has[v][u] = w[u][v], true
	}
	if hub := rng.Intn(n); rng.Intn(3) == 0 {
		for v := 0; v < n; v++ {
			if v != hub {
				w[hub][v], has[hub][v] = math.Copysign(0, float64(rng.Intn(2))-0.5), true
				w[v][hub], has[v][hub] = w[hub][v], true
			}
		}
	}
	adj := &matrix.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	longest := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if has[i][j] {
				adj.ColIdx = append(adj.ColIdx, int32(j))
				adj.Val = append(adj.Val, w[i][j])
			}
		}
		adj.RowPtr[i+1] = int64(len(adj.ColIdx))
		longest = max(longest, adj.RowNNZ(i))
	}
	c := refineCase{Adj: adj, K: 2 + rng.Intn(min(n-1, longest+3)), Passes: 1}
	if rng.Intn(2) == 0 {
		c.Passes = 10
	}
	draw := func() []int {
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(c.K - 1)
		}
		a[rng.Intn(n)] = c.K - 1 // a singleton: skipped, never evaluated
		return a
	}
	c.Warm, c.Assign = draw(), draw()
	return reflect.ValueOf(c)
}

// TestQuickRefineMatchesReference: refine returns the reference's
// assignment and leaves its cluster totals, to the bit — on a scratch
// another level has already used, as ClusterCtx's is.
func TestQuickRefineMatchesReference(t *testing.T) {
	ctx := context.Background()
	f := func(c refineCase) bool {
		r := new(refiner).reset(c.Adj.Rows, c.K)
		r.refine(ctx, c.Adj, c.Warm, c.Passes)
		want, links, degs := refineReference(ctx, c.Adj, append([]int(nil), c.Assign...), c.K, c.Passes)
		got := r.refine(ctx, c.Adj, append([]int(nil), c.Assign...), c.Passes)
		if !reflect.DeepEqual(got, want) {
			t.Logf("assign %v, want %v", got, want)
			return false
		}
		for k := range links {
			if math.Float64bits(r.clusterLinks[k]) != math.Float64bits(links[k]) ||
				math.Float64bits(r.clusterDeg[k]) != math.Float64bits(degs[k]) {
				t.Logf("cluster %d: links %x deg %x, want %x %x", k, r.clusterLinks[k], r.clusterDeg[k], links[k], degs[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
