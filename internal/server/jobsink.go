package server

import (
	"sync"

	"symcluster/internal/jobstore"
)

// jobSink adapts the job store's WAL to the checkpoint.Sink the kernels
// consume. One sink serves one job's context.
//
// Restore bookkeeping: a job may invoke the same kernel more than once
// (e.g. a random-walk symmetrization whose product misses the cache
// after a restart, then MCL). Checkpoints are journaled with the
// invocation ordinal as Seq, and a replayed snapshot is only served to
// the invocation whose ordinal matches — restoring the third solve's
// state into a fresh first solve would silently corrupt the run.
type jobSink struct {
	jobs     *jobstore.Store
	jobID    string
	interval int

	mu      sync.Mutex
	calls   map[string]int // kernel → Restore invocations seen this process
	initial map[string]jobstore.Checkpoint
}

func newJobSink(jobs *jobstore.Store, jobID string, interval int, initial map[string]jobstore.Checkpoint) *jobSink {
	return &jobSink{
		jobs:     jobs,
		jobID:    jobID,
		interval: interval,
		calls:    make(map[string]int),
		initial:  initial,
	}
}

func (s *jobSink) Interval() int { return s.interval }

func (s *jobSink) Restore(kernel string) (int, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[kernel]++
	ck, ok := s.initial[kernel]
	if !ok || ck.Seq != s.calls[kernel] {
		return 0, nil, false
	}
	return ck.Iter, ck.Blob, true
}

func (s *jobSink) Save(kernel string, iter int, blob []byte) error {
	s.mu.Lock()
	seq := s.calls[kernel]
	s.mu.Unlock()
	if seq < 1 {
		// A kernel always calls Restore before its first Save; guard
		// anyway so a journaled Seq of 0 can never match spuriously.
		seq = 1
	}
	return s.jobs.SaveCheckpoint(s.jobID, kernel, jobstore.Checkpoint{
		Seq:  seq,
		Iter: iter,
		Blob: blob,
	})
}
