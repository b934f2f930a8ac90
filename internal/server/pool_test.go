package server

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mustReserve takes a slot or fails the test.
func mustReserve(t *testing.T, p *Pool) *Slot {
	t.Helper()
	sl, err := p.Reserve()
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	return sl
}

// occupy reserves a slot and holds a worker with it until the returned
// release is called (and has returned, the slot is back).
func occupy(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	sl := mustReserve(t, p)
	if err := sl.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	gate, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sl.Run(context.Background(), func(context.Context) error { <-gate; return nil })
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(gate) })
		<-done
	}
}

func mustClose(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("pool close: %v", err)
	}
}

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(2, 4)
	defer mustClose(t, p)
	sl := mustReserve(t, p)
	if err := sl.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p.Busy() != 1 || p.QueueDepth() != 0 {
		t.Fatalf("on a worker: busy=%d depth=%d, want 1 0", p.Busy(), p.QueueDepth())
	}
	n := 0
	if err := sl.Run(context.Background(), func(context.Context) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
	if p.Busy() != 0 || p.QueueDepth() != 0 {
		t.Fatalf("after run: busy=%d depth=%d, want 0 0", p.Busy(), p.QueueDepth())
	}
}

// TestPoolOwnsNoGoroutines: the pool is a bound, not a set of workers —
// building one, and holding a slot on it, starts nothing.
func TestPoolOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8, 8)
	sl := mustReserve(t, p)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d → %d around NewPool + Reserve", before, after)
	}
	sl.Release()
	mustClose(t, p)
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer mustClose(t, p)
	release := occupy(t, p)
	defer release()
	queued := mustReserve(t, p) // the one queue place
	if p.Busy() != 1 || p.QueueDepth() != 1 {
		t.Fatalf("busy=%d depth=%d, want 1 1", p.Busy(), p.QueueDepth())
	}
	if _, err := p.Reserve(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// A released place can be taken again.
	queued.Release()
	mustReserve(t, p).Release()
}

// TestPoolDropsCanceledQueuedTask: a context that ends while its slot
// waits for a worker gets the context's error at once — not when the
// worker frees up — never runs, and leaves its queue place free.
func TestPoolDropsCanceledQueuedTask(t *testing.T) {
	p := NewPool(1, 1)
	defer mustClose(t, p)
	release := occupy(t, p)
	defer release()

	sl := mustReserve(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel() // the client disconnects before a worker frees up
	}()
	if err := sl.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after a cancelled wait, want 0", p.QueueDepth())
	}
	mustReserve(t, p).Release() // the place is free while the worker is still held

	// A context already over when a worker is free does not run either.
	release()
	sl = mustReserve(t, p)
	if err := sl.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context on an idle pool: err = %v, want context.Canceled", err)
	}
	if p.Busy() != 0 || p.QueueDepth() != 0 {
		t.Fatalf("busy=%d depth=%d after a dead wait, want 0 0", p.Busy(), p.QueueDepth())
	}
}

func TestPoolCloseDrainsQueuedWork(t *testing.T) {
	p := NewPool(1, 8)
	var done atomic.Int64
	for i := 0; i < 5; i++ {
		sl := mustReserve(t, p)
		go func() {
			if err := sl.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			sl.Run(context.Background(), func(context.Context) error {
				time.Sleep(time.Millisecond)
				done.Add(1)
				return nil
			})
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 5 {
		t.Fatalf("done = %d, want 5", done.Load())
	}
	if _, err := p.Reserve(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseDeadline(t *testing.T) {
	p := NewPool(1, 1)
	release := occupy(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := p.Close(ctx2); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPoolRecoversPanic(t *testing.T) {
	p := NewPool(1, 2)
	defer mustClose(t, p)
	sl := mustReserve(t, p)
	if err := sl.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := sl.Run(context.Background(), func(context.Context) error { panic("kernel exploded") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kernel exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	if msg := pe.Error(); !strings.Contains(msg, "kernel exploded") || strings.Contains(msg, "goroutine ") {
		t.Fatalf("Error() = %q: want the value, never the stack", msg)
	}
	if p.PanicsRecovered() != 1 {
		t.Fatalf("panics recovered = %d, want 1", p.PanicsRecovered())
	}
	// The single worker came back with the panic and serves the next task.
	sl = mustReserve(t, p)
	if err := sl.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := sl.Run(context.Background(), func(context.Context) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("post-panic run: ran=%v err=%v", ran, err)
	}
}

// TestPoolBoundsConcurrentWork hammers one pool from many goroutines:
// never more than workers tasks inside Run, never more than workers +
// queueDepth slots out, and every slot comes back.
func TestPoolBoundsConcurrentWork(t *testing.T) {
	const workers, depth, callers = 3, 4, 32
	p := NewPool(workers, depth)
	var out, running, peak, ran, full atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sl, err := p.Reserve()
				if err != nil {
					full.Add(1)
					runtime.Gosched()
					continue
				}
				if got := out.Add(1); got > workers+depth {
					t.Errorf("%d slots out, bound %d", got, workers+depth)
				}
				if err := sl.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
				sl.Run(context.Background(), func(context.Context) error {
					n := running.Add(1)
					for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
					}
					runtime.Gosched()
					running.Add(-1)
					ran.Add(1)
					out.Add(-1) // before Run gives the slot back: out never overcounts
					return nil
				})
			}
		}()
	}
	wg.Wait()
	mustClose(t, p) // returns only once every slot is back
	if peak.Load() > workers || ran.Load()+full.Load() != callers*50 || ran.Load() == 0 || full.Load() == 0 {
		t.Fatalf("peak running %d (bound %d), ran %d, refused %d of %d", peak.Load(), workers, ran.Load(), full.Load(), callers*50)
	}
}
