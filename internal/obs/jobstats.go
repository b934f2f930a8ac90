package obs

import (
	"context"
	"runtime/metrics"
	"sync"
	"time"
)

// StageStats is the accounting for one named pipeline stage of a job.
// CPU time is process CPU (user+system via getrusage) and the alloc
// delta is the runtime's cumulative heap-allocation counter across the
// stage, so both are approximate attributions when jobs run
// concurrently — good enough to answer "where did this job's time go".
type StageStats struct {
	WallMillis float64 `json:"wall_millis"`
	CPUMillis  float64 `json:"cpu_millis"`
	AllocBytes int64   `json:"alloc_bytes"`
}

// JobStatsSnapshot is the wire (and WAL) form of one job's resource
// accounting: embedded in ClusterResponse.Stats, served at
// GET /v1/jobs/{id}/stats, and persisted in the job's WAL record.
type JobStatsSnapshot struct {
	QueueWaitMillis      float64               `json:"queue_wait_millis"`
	Stages               map[string]StageStats `json:"stages,omitempty"`
	CacheHits            int64                 `json:"cache_hits"`
	CacheMisses          int64                 `json:"cache_misses"`
	SpillBytes           int64                 `json:"spill_bytes,omitempty"`
	CheckpointBytes      int64                 `json:"checkpoint_bytes,omitempty"`
	OOCResidentPeakBytes int64                 `json:"ooc_resident_peak_bytes,omitempty"`
}

// JobStats accumulates one job's resource accounting. It rides the
// context through pool, executor, and kernels the same way PruneStats
// does: the daemon (or CLI) installs one with WithJobStats, the layers
// underneath record into it via the nil-safe methods, and the owner
// reads it back with Snapshot when the job finishes. Safe for
// concurrent use.
type JobStats struct {
	mu   sync.Mutex
	snap JobStatsSnapshot
}

// NewJobStats returns an empty accumulator.
func NewJobStats() *JobStats { return &JobStats{} }

// WithJobStats installs js as the context's job accumulator.
func WithJobStats(ctx context.Context, js *JobStats) context.Context {
	return context.WithValue(ctx, jobStatsKey, js)
}

// JobStatsFrom returns the installed accumulator, or nil (every method
// of which is a no-op), so call sites never branch.
func JobStatsFrom(ctx context.Context) *JobStats {
	js, _ := ctx.Value(jobStatsKey).(*JobStats)
	return js
}

// SetQueueWait records how long the job sat in the worker-pool queue
// before a worker picked it up.
func (j *JobStats) SetQueueWait(d time.Duration) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.snap.QueueWaitMillis = float64(d) / float64(time.Millisecond)
	j.mu.Unlock()
}

// AddStage folds one stage execution's wall, CPU, and allocation
// deltas into the named stage (accumulating across retries/resumes).
func (j *JobStats) AddStage(name string, wall, cpu time.Duration, allocBytes int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.snap.Stages == nil {
		j.snap.Stages = make(map[string]StageStats)
	}
	st := j.snap.Stages[name]
	st.WallMillis += float64(wall) / float64(time.Millisecond)
	st.CPUMillis += float64(cpu) / float64(time.Millisecond)
	if allocBytes > 0 {
		st.AllocBytes += allocBytes
	}
	j.snap.Stages[name] = st
	j.mu.Unlock()
}

// AddCache records one symmetrization-cache lookup.
func (j *JobStats) AddCache(hit bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if hit {
		j.snap.CacheHits++
	} else {
		j.snap.CacheMisses++
	}
	j.mu.Unlock()
}

// AddSpillBytes records bytes written to disk scratch (external-sort
// runs, out-of-core intermediates) on the job's behalf.
func (j *JobStats) AddSpillBytes(n int64) {
	if j == nil || n <= 0 {
		return
	}
	j.mu.Lock()
	j.snap.SpillBytes += n
	j.mu.Unlock()
}

// AddCheckpointBytes records one checkpoint snapshot's serialized size.
func (j *JobStats) AddCheckpointBytes(n int64) {
	if j == nil || n <= 0 {
		return
	}
	j.mu.Lock()
	j.snap.CheckpointBytes += n
	j.mu.Unlock()
}

// ObserveResident tracks the high-water mark of out-of-core resident
// bytes charged against the job's budget.
func (j *JobStats) ObserveResident(n int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if n > j.snap.OOCResidentPeakBytes {
		j.snap.OOCResidentPeakBytes = n
	}
	j.mu.Unlock()
}

// Snapshot returns a deep copy of the accumulated stats, or nil on a
// nil accumulator.
func (j *JobStats) Snapshot() *JobStatsSnapshot {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.snap
	if j.snap.Stages != nil {
		out.Stages = make(map[string]StageStats, len(j.snap.Stages))
		for k, v := range j.snap.Stages {
			out.Stages[k] = v
		}
	}
	return &out
}

// BeginStage starts accounting one named stage against the context's
// JobStats and returns the closure that folds the wall/CPU/alloc
// deltas in. With no accumulator installed both halves are no-ops, so
// the pipeline calls it unconditionally:
//
//	done := obs.BeginStage(ctx, "symmetrize")
//	… run the stage …
//	done()
func BeginStage(ctx context.Context, name string) func() {
	js := JobStatsFrom(ctx)
	if js == nil {
		return func() {}
	}
	start := time.Now()
	cpu0 := ProcessCPUTime()
	alloc0 := totalAllocBytes()
	return func() {
		js.AddStage(name, time.Since(start), ProcessCPUTime()-cpu0, totalAllocBytes()-alloc0)
	}
}

// totalAllocBytes reads the runtime's cumulative allocation counter
// (the quantity MemStats.TotalAlloc reports) through runtime/metrics,
// which — unlike runtime.ReadMemStats — does not stop the world; the
// samples are pooled so a stage boundary allocates nothing.
func totalAllocBytes() int64 {
	sample := allocSamples.Get().(*[1]metrics.Sample)
	defer allocSamples.Put(sample)
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0 // a runtime without the metric: stages report no bytes
	}
	return int64(sample[0].Value.Uint64())
}

var allocSamples = sync.Pool{New: func() any {
	return &[1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
}}
