package metis

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"symcluster/internal/matrix"
)

// fmRefineReference is fmRefine as it stood on container/heap's order:
// every pass pops the heap dry, and the rollback keeps weight0 as it
// goes before the recount replaces it.
func fmRefineReference(adj *matrix.CSR, nodeWeight []float64, side []int, frac float64) []int {
	n := adj.Rows
	var total float64
	for _, w := range nodeWeight {
		total += w
	}
	target0 := frac * total
	maxSide0 := target0 * (1 + imbalance)
	minSide0 := target0 * (1 - imbalance)
	if minSide0 < 0 {
		minSide0 = 0
	}

	var weight0, maxNodeW float64
	for i, s := range side {
		if s == 0 {
			weight0 += nodeWeight[i]
		}
		if nodeWeight[i] > maxNodeW {
			maxNodeW = nodeWeight[i]
		}
	}
	loosMax := maxSide0 + maxNodeW
	loosMin := minSide0 - maxNodeW
	if loosMin < 0 {
		loosMin = 0
	}

	gain := make([]float64, n)
	computeGain := func(i int) float64 {
		cols, vals := adj.Row(i)
		var ext, intl float64
		for t, c := range cols {
			if side[c] == side[i] {
				intl += vals[t]
			} else {
				ext += vals[t]
			}
		}
		return ext - intl
	}

	locked := make([]bool, n)
	for pass := 0; pass < refinePasses; pass++ {
		pq := &boxedHeap{}
		clear(locked)
		for i := 0; i < n; i++ {
			gain[i] = computeGain(i)
			heap.Push(pq, heapItem{node: int32(i), key: gain[i]})
		}

		var moves []int
		var cum, bestCum float64
		bestPrefix := -1
		w0 := weight0

		for pq.Len() > 0 {
			it := heap.Pop(pq).(heapItem)
			i := int(it.node)
			if locked[i] || it.key != gain[i] {
				continue
			}
			var nw0 float64
			if side[i] == 0 {
				nw0 = w0 - nodeWeight[i]
			} else {
				nw0 = w0 + nodeWeight[i]
			}
			if nw0 > loosMax || nw0 < loosMin {
				locked[i] = true
				continue
			}
			locked[i] = true
			moved := gain[i]
			side[i] = 1 - side[i]
			w0 = nw0
			cum += moved
			moves = append(moves, i)
			if cum > bestCum+1e-12 && w0 <= maxSide0 && w0 >= minSide0 {
				bestCum = cum
				bestPrefix = len(moves) - 1
			}
			cols, vals := adj.Row(i)
			for t, c := range cols {
				if locked[c] {
					continue
				}
				if side[c] == side[i] {
					gain[c] -= 2 * vals[t]
				} else {
					gain[c] += 2 * vals[t]
				}
				heap.Push(pq, heapItem{node: c, key: gain[c]})
			}
		}
		for m := len(moves) - 1; m > bestPrefix; m-- {
			i := moves[m]
			side[i] = 1 - side[i]
			if side[i] == 0 {
				weight0 += nodeWeight[i]
			} else {
				weight0 -= nodeWeight[i]
			}
		}
		weight0 = 0
		for i, s := range side {
			if s == 0 {
				weight0 += nodeWeight[i]
			}
		}
		if bestPrefix < 0 {
			break
		}
	}
	return side
}

// TestFMRefineMatchesReference: fmRefine — its early pass exit, Floyd's
// pop, the rollback without running weight0 — returns the reference's
// sides exactly, on random symmetric graphs with one to three distinct
// edge weights (where equal gains are the rule, so any change in pop
// order moves another node first) and with inexact weights, under unit
// and aggregated node weights, from random starting splits. Two graphs
// in three have under ten nodes, where the last free node's move is most
// often the best prefix. One scratch serves every call, so a heap an
// early exit left stale is reused.
func TestFMRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ws := sizedWorkspace(120)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn([]int{119, 8, 8}[trial%3])
		distinct := trial%2 == 0
		b := matrix.NewBuilder(n, n)
		for e := rng.Intn(5 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := 0.1 + rng.Float64()
			if distinct {
				w = float64(1 + rng.Intn(3))
			}
			b.Add(u, v, w)
			b.Add(v, u, w)
		}
		adj := b.Build()
		nodeWeight := make([]float64, n)
		side := make([]int, n)
		for i := range side {
			nodeWeight[i] = 1
			if trial%3 == 0 {
				nodeWeight[i] = float64(1 + rng.Intn(4))
			}
			side[i] = rng.Intn(2)
		}
		frac := []float64{0.5, 1.0 / 3, 0.6}[rng.Intn(3)]
		want := fmRefineReference(adj, nodeWeight, slices.Clone(side), frac)
		if got := ws.fmRefine(adj, nodeWeight, slices.Clone(side), frac); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, distinct weights %v, frac %v): sides\n%v\nwant\n%v", trial, n, distinct, frac, got, want)
		}
	}
}
