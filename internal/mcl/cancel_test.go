package mcl

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// countingCtx reports cancellation after its Err method has been
// polled a fixed number of times. It cancels deterministically in the
// middle of a computation — no timers, no races — so tests can pin
// down exactly that kernels poll their context and stop.
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

func TestClusterCtxCancelledMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	adj, _ := blockGraph(rng, 4, 25, 0.4, 0.01)
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	// One expansion worker, then as many as the flow has tiles.
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx := &countingCtx{Context: context.Background(), after: 2}
		res, err := ClusterCtx(ctx, adj, Options{Inflation: 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want context.Canceled", procs, err)
		}
		if res != nil {
			t.Fatalf("GOMAXPROCS=%d: res = %v, want nil on cancellation", procs, res)
		}
		// The kernel must have stopped at the poll that observed the
		// cancellation, not ground on: allow the handful of boundary
		// checks between the observing poll and the return — one per
		// expansion worker — nothing iteration-sized.
		if polls := ctx.polls.Load(); polls > ctx.after+16 {
			t.Fatalf("GOMAXPROCS=%d: kernel kept polling %d times after cancellation", procs, polls-ctx.after)
		}
	}
}

func TestClusterCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(2))
	adj, _ := blockGraph(rng, 2, 10, 0.5, 0.05)
	if _, err := ClusterCtx(ctx, adj, Options{Inflation: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
