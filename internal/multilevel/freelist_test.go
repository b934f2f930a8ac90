package multilevel

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestPermMatchesRandPerm: Perm into a buffer that grows and shrinks
// draws what rand.Perm draws and leaves the generator where it does.
func TestPermMatchesRandPerm(t *testing.T) {
	var buf []int
	for seed := int64(0); seed < 200; seed++ {
		n := []int{0, 1, 2, 7, 64, 513, 3000}[seed%7] + int(seed)%5
		want, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		buf = Perm(ref, buf, n)
		if p := want.Perm(n); !slices.Equal(buf, p) {
			t.Fatalf("seed %d, n %d: Perm %v, want %v", seed, n, buf, p)
		}
		if a, b := want.Int63(), ref.Int63(); a != b {
			t.Fatalf("seed %d, n %d: next draw %d, want %d", seed, n, b, a)
		}
	}
}

// TestScratchBuildMatchesFresh: coarsening into one Scratch, graph after
// graph, larger and smaller, gives each time the hierarchy CoarsenCtx
// builds in fresh storage, and Release leaves no caller's graph in it.
func TestScratchBuildMatchesFresh(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		adj := randomSym(rng, []int{600, 90, 300, 40}[trial%4]+rng.Intn(50), 2+6*rng.Float64())
		opt := Options{MinNodes: 8 + rng.Intn(40), Seed: int64(trial)}
		want, err := CoarsenCtx(ctx, adj, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coarsen(ctx, adj, opt, &s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: a reused scratch's hierarchy (%d levels) differs from a fresh one's (%d)", trial, got.Depth(), want.Depth())
		}
		s.Release()
		if s.h.Levels[0].Adj != nil {
			t.Fatal("a released scratch still holds its caller's adjacency")
		}
	}
}
