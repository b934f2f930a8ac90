package multilevel

import (
	"math/rand"
	"runtime"
	"slices"
)

// FreeList keeps a clusterer's idle workspaces between calls, at most
// GOMAXPROCS of them, each as large as the largest graph it has served.
// Unlike a sync.Pool's, they survive a collection, so a call finds the
// buffers earlier calls grew.
type FreeList[T any] struct {
	idle  chan *T // as many as can run at once
	fresh func() *T
}

// NewFreeList returns an empty free list whose Get makes a workspace
// with fresh when none is idle.
func NewFreeList[T any](fresh func() *T) *FreeList[T] {
	return &FreeList[T]{idle: make(chan *T, runtime.GOMAXPROCS(0)), fresh: fresh}
}

// Get takes an idle workspace, or makes one.
func (f *FreeList[T]) Get() *T {
	select {
	case w := <-f.idle:
		return w
	default:
		return f.fresh()
	}
}

// Put gives w back, or drops it when the list is full.
func (f *FreeList[T]) Put(w *T) {
	select {
	case f.idle <- w:
	default:
	}
}

// Resize returns buf with length n, reusing its array when it has room;
// what it holds is stale.
func Resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// Perm is rng.Perm(n) written into dst (resized): the same draws and
// the same permutation, with no allocation once dst has room.
func Perm(rng *rand.Rand, dst []int, n int) []int {
	m := Resize(dst, n)
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
