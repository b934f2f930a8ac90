package walk

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"symcluster/internal/checkpoint"
	"symcluster/internal/matrix"
)

// memSink is an in-memory checkpoint.Sink for kernel tests.
type memSink struct {
	mu       sync.Mutex
	interval int
	saves    []savedCk
	preload  *savedCk
	restores int
}

type savedCk struct {
	iter int
	blob []byte
}

func (s *memSink) Interval() int { return s.interval }

func (s *memSink) Restore(kernel string) (int, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restores++
	if kernel != "walk" || s.preload == nil {
		return 0, nil, false
	}
	return s.preload.iter, s.preload.blob, true
}

func (s *memSink) Save(kernel string, iter int, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves = append(s.saves, savedCk{iter: iter, blob: append([]byte(nil), blob...)})
	return nil
}

func (s *memSink) last() (savedCk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.saves) == 0 {
		return savedCk{}, false
	}
	return s.saves[len(s.saves)-1], true
}

// randomWalkMatrix builds the transition matrix of a random directed
// graph dense enough to be strongly connected in practice.
func randomWalkMatrix(rng *rand.Rand, n int) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for d := 0; d < 4; d++ {
			j := rng.Intn(n)
			if j != i {
				b.Add(i, j, 1+rng.Float64())
			}
		}
	}
	return TransitionMatrix(b.Build())
}

// Resuming the power iteration from a mid-run snapshot reproduces the
// uninterrupted stationary distribution exactly.
func TestWalkCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomWalkMatrix(rng, 200)
	opt := Options{Teleport: 0.05, Tol: 1e-12}

	base, err := StationaryDistributionCtx(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}

	rec := &memSink{interval: 1}
	full, err := StationaryDistributionCtx(checkpoint.With(context.Background(), rec), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if full[i] != base[i] {
			t.Fatal("checkpointing changed the trajectory")
		}
	}
	if len(rec.saves) == 0 {
		t.Fatal("no checkpoints saved")
	}
	mid := rec.saves[len(rec.saves)/2]
	if mid.iter == 0 {
		t.Fatalf("mid checkpoint at iteration 0 (have %d)", len(rec.saves))
	}

	res := &memSink{interval: 1, preload: &mid}
	resumed, err := StationaryDistributionCtx(checkpoint.With(context.Background(), res), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if resumed[i] != base[i] {
			t.Fatalf("resumed π[%d] = %v, want %v", i, resumed[i], base[i])
		}
	}
	if res.restores != 1 {
		t.Fatalf("Restore called %d times, want 1", res.restores)
	}
}

// A snapshot for a different-sized graph is ignored.
func TestWalkCheckpointWrongSizeIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomWalkMatrix(rng, 100)
	small := randomWalkMatrix(rng, 10)
	opt := Options{Teleport: 0.05}

	base, err := StationaryDistributionCtx(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := &memSink{interval: 1}
	if _, err := StationaryDistributionCtx(checkpoint.With(context.Background(), rec), small, opt); err != nil {
		t.Fatal(err)
	}
	stale, ok := rec.last()
	if !ok {
		t.Fatal("no checkpoint from the small solve")
	}
	res := &memSink{interval: 1, preload: &stale}
	got, err := StationaryDistributionCtx(checkpoint.With(context.Background(), res), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatal("stale snapshot corrupted the solve")
		}
	}
}

// pollCtx cancels after a fixed number of Err polls; the walk polls
// once per iteration, so this cancels mid-solve deterministically.
type pollCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// Cancellation saves a final snapshot even with periodic saves off.
func TestWalkCheckpointOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomWalkMatrix(rng, 150)
	sink := &memSink{interval: 0}
	ctx := checkpoint.With(&pollCtx{Context: context.Background(), after: 5}, sink)
	_, err := StationaryDistributionCtx(ctx, p, Options{Teleport: 0.05, Tol: 1e-14})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	last, ok := sink.last()
	if !ok {
		t.Fatal("cancellation saved no checkpoint")
	}
	if last.iter == 0 {
		t.Fatal("cancel checkpoint at iteration 0")
	}
}
