package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"symcluster/internal/graph"
	"symcluster/internal/leakcheck"
)

// countingCtx cancels after a fixed number of Err polls, pinning
// cancellation to a deterministic point mid-computation.
type countingCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestSymmetrizeCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := graph.NewDirected(figure1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{AAT, RandomWalk, Bibliometric, DegreeDiscounted} {
		if _, err := SymmetrizeCtx(ctx, g, m, Defaults()); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", m, err)
		}
	}
}

// A product cancelled at its second tile claim returns ctx's error and
// leaves no worker behind, inline (GOMAXPROCS 1, four tiles) and on
// spawned workers (GOMAXPROCS 4, seven tiles).
func TestProductCtxCancelledMidProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDirected(rng, 400, 12)
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, m := range []Method{Bibliometric, DegreeDiscounted} {
			t.Run(fmt.Sprintf("%v/procs=%d", m, procs), func(t *testing.T) {
				leakcheck.Guard(t)
				ctx := &countingCtx{Context: context.Background(), after: 1}
				u, err := symmetrizeAdj(ctx, a, m, Defaults(), nil)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if u != nil {
					t.Fatalf("u = %v, want nil on cancellation", u)
				}
			})
		}
	}
}

func TestRandomWalkCtxCancelledMidPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDirected(rng, 200, 6)
	ctx := &countingCtx{Context: context.Background(), after: 2}
	u, err := symmetrizeRandomWalk(ctx, a, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if u != nil {
		t.Fatal("partial result returned on cancellation")
	}
}
