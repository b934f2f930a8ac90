package obs

import (
	"runtime/metrics"
	"strings"
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
// GET /v1/jobs/{id}/stats, and persisted in the job's WAL record. It is
// read off the run's span tree by StatsOf.
type JobStatsSnapshot struct {
	QueueWaitMillis      float64               `json:"queue_wait_millis"`
	Stages               map[string]StageStats `json:"stages,omitempty"`
	CacheHits            int64                 `json:"cache_hits"`
	CacheMisses          int64                 `json:"cache_misses"`
	SpillBytes           int64                 `json:"spill_bytes,omitempty"`
	CheckpointBytes      int64                 `json:"checkpoint_bytes,omitempty"`
	OOCResidentPeakBytes int64                 `json:"ooc_resident_peak_bytes,omitempty"`
}

// StatsOf reads a run's resource accounting off its span tree (nil for
// a nil tree):
//
//   - queue wait: the "queue" span's wall clock;
//   - stages: every stage span — one carrying cpu_millis, which
//     MeterStage sets — by name: wall clock, cpu_millis and alloc_bytes;
//     its cache_hit, when set, counts a cache hit or miss;
//   - spill: "csr.write" bytes, plus "csr.ingest.merge" merged_bytes when
//     it spilled runs;
//   - checkpoints: the bytes of every "*.checkpoint" span;
//   - out-of-core peak: the largest "core.symmetrize" resident_peak_bytes.
//
// A span's attributes say only what happened, failed spans included.
func StatsOf(root *SpanNode) *JobStatsSnapshot {
	if root == nil {
		return nil
	}
	st := &JobStatsSnapshot{}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		num := func(key string) float64 { v, _ := n.Number(key); return v }
		switch {
		case n.Name == "queue":
			st.QueueWaitMillis += n.DurationMillis
		case n.Attrs["cpu_millis"] != nil:
			if st.Stages == nil {
				st.Stages = make(map[string]StageStats)
			}
			s := st.Stages[n.Name]
			s.WallMillis += n.DurationMillis
			s.CPUMillis += num("cpu_millis")
			s.AllocBytes += int64(num("alloc_bytes"))
			st.Stages[n.Name] = s
			if hit, ok := n.Attrs["cache_hit"].(bool); ok && hit {
				st.CacheHits++
			} else if ok {
				st.CacheMisses++
			}
		case n.Name == "csr.write":
			st.SpillBytes += int64(num("bytes"))
		case n.Name == "csr.ingest.merge" && num("spill_runs") > 0:
			st.SpillBytes += int64(num("merged_bytes"))
		case strings.HasSuffix(n.Name, ".checkpoint"):
			st.CheckpointBytes += int64(num("bytes"))
		case n.Name == "core.symmetrize":
			st.OOCResidentPeakBytes = max(st.OOCResidentPeakBytes, int64(num("resident_peak_bytes")))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return st
}

// Child returns n's first direct child called name, or nil: a run's
// stage spans ("symmetrize", "cluster", "queue") are the root's
// children.
func (n *SpanNode) Child(name string) *SpanNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Number returns the numeric attribute key of n as a float64; ok is
// false when n has no such attribute or it is not a number.
func (n *SpanNode) Number(key string) (v float64, ok bool) {
	switch x := n.Attrs[key].(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// MeterStage charges a pipeline stage's span with the process CPU time
// and heap allocation from now until the returned closure runs, which
// sets them as the span's cpu_millis and alloc_bytes — the attributes
// that make it a stage span to StatsOf. With no span (no trace) nothing
// is read:
//
//	ctx, sp := obs.StartSpan(ctx, "symmetrize")
//	done := obs.MeterStage(sp)
//	… run the stage …
//	done()
func MeterStage(sp *Span) func() {
	if sp == nil {
		return func() {}
	}
	cpu0, alloc0 := ProcessCPUTime(), totalAllocBytes()
	return func() {
		sp.SetAttr("cpu_millis", float64(ProcessCPUTime()-cpu0)/float64(time.Millisecond))
		sp.SetAttr("alloc_bytes", max(totalAllocBytes()-alloc0, 0))
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
