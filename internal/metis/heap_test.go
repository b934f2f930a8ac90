package metis

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedHeap is the lazy max-heap as it stood on container/heap.
type boxedHeap []heapItem

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestMaxHeapPopsLikeContainerHeap: on random traces of pushes and pops
// over a handful of distinct keys — so most comparisons are ties, as FM
// gains on unit-weight graphs are — the typed heap returns the entries
// container/heap returns, node for node, and leaves the same array
// behind. A heap that is merely correct pops equal keys in some other
// order, and the partition moves a different node first.
func TestMaxHeapPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		var got maxHeap
		want := &boxedHeap{}
		keys := 1 + rng.Intn(5)
		for op, node := 0, int32(0); op < 400; op++ {
			if len(got) != want.Len() {
				t.Fatalf("trial %d op %d: length %d, want %d", trial, op, len(got), want.Len())
			}
			if len(got) == 0 || rng.Intn(5) < 3 {
				it := heapItem{node: node, key: float64(rng.Intn(keys)) / 3}
				node++
				got.push(it)
				heap.Push(want, it)
			} else if g, w := got.pop(), heap.Pop(want).(heapItem); g != w {
				t.Fatalf("trial %d op %d: popped %+v, want %+v", trial, op, g, w)
			}
			for k := range got {
				if got[k] != (*want)[k] {
					t.Fatalf("trial %d op %d: slot %d holds %+v, want %+v", trial, op, k, got[k], (*want)[k])
				}
			}
		}
	}
}
