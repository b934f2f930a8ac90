package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"symcluster/internal/faultinject"
)

// Pool errors distinguished by handlers: a full queue maps to 503 with
// Retry-After, a closed pool to 503 during drain.
var (
	ErrQueueFull  = errors.New("server: worker queue full")
	ErrPoolClosed = errors.New("server: worker pool closed")
)

// PanicError is the error a task resolves to when the kernel it ran
// panicked: Slot.Run recovers it so one poisoned job cannot take down
// the daemon. Stack is for server-side logging, never sent to clients.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value, never the stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("server: worker panic: %v", e.Value)
}

// Pool is a counted bound on clustering work: at most workers tasks
// run and at most queueDepth more wait. It owns no goroutines — every
// job already has one blocked on it (the request's, or an async job's
// own), which takes a Slot with Reserve (never blocking: ErrQueueFull
// lets the HTTP layer shed load), waits on it for a worker, and runs
// the task itself.
type Pool struct {
	workers chan struct{} // one token per running task

	mu     sync.Mutex
	held   int // slots out: waiting + running
	limit  int // workers + queueDepth
	closed bool
	idle   chan struct{} // closed once the pool is closed and held == 0

	panics atomic.Int64
}

// NewPool bounds work at workers running and queueDepth waiting. Both
// arguments are clamped to at least 1.
func NewPool(workers, queueDepth int) *Pool {
	workers, queueDepth = max(workers, 1), max(queueDepth, 1)
	return &Pool{workers: make(chan struct{}, workers), limit: workers + queueDepth, idle: make(chan struct{})}
}

// Slot is one place in the pool: first in the queue, then — once Wait
// returns nil — on a worker. Whoever holds it must end it exactly once,
// through a failed Wait, through Run, or through Release.
type Slot struct {
	p       *Pool
	running bool
}

// Reserve takes a slot, or fails with ErrQueueFull when workers +
// queueDepth are out, or ErrPoolClosed after Close.
func (p *Pool) Reserve() (*Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if p.held == p.limit {
		return nil, ErrQueueFull
	}
	p.held++
	return &Slot{p: p}, nil
}

// Wait blocks until a worker is free. When ctx ends first — a client
// that went away, a deadline that expired in the queue — the slot is
// given back at once and ctx's error returned: the task never runs.
func (s *Slot) Wait(ctx context.Context) error {
	select {
	case s.p.workers <- struct{}{}:
		s.running = true
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		s.Release()
		return err
	}
	return nil
}

// Run executes fn on the worker Wait obtained and gives the slot back.
// A panicking kernel is recovered into a *PanicError (counted for
// /metrics) instead of crashing the goroutine — and with it the daemon.
func (s *Slot) Run(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer s.Release()
	defer func() {
		if r := recover(); r != nil {
			s.p.panics.Add(1)
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := faultinject.Fire("pool.task"); ferr != nil {
		return ferr
	}
	return fn(ctx)
}

// Release gives back a slot that will not run (its job was a duplicate,
// or could not be journaled).
func (s *Slot) Release() {
	p := s.p
	if s.running {
		<-p.workers
	}
	p.mu.Lock()
	p.held--
	if p.closed && p.held == 0 {
		close(p.idle)
	}
	p.mu.Unlock()
}

// QueueDepth returns the number of slots waiting for a worker.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return max(p.held-len(p.workers), 0)
}

// Busy returns the number of workers currently holding a task.
func (p *Pool) Busy() int { return len(p.workers) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return cap(p.workers) }

// PanicsRecovered returns the number of task panics recovered.
func (p *Pool) PanicsRecovered() int64 { return p.panics.Load() }

// Close stops handing out slots and waits for queued and running work
// to drain; it returns ctx.Err() if ctx expired with work in flight.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.held == 0 {
			close(p.idle)
		}
	}
	p.mu.Unlock()
	return p.Wait(ctx)
}

// Wait blocks until every slot is back (the pool must already be
// closed) or ctx expires. Drain calls it again after preempting stuck
// jobs, as the grace window for the kernels to checkpoint and return.
func (p *Pool) Wait(ctx context.Context) error {
	select {
	case <-p.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
