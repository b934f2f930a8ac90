package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	// Trace ids contain dashes ("t-<base>-<seq>"); wire span ids never
	// do, so the parse must split from the right.
	traceID := NewTraceID()
	if !strings.HasPrefix(traceID, "t-") {
		t.Fatalf("trace id %q", traceID)
	}
	v := FormatTraceparent(traceID, "abc123.4")
	gotTrace, gotSpan, ok := ParseTraceparent(v)
	if !ok || gotTrace != traceID || gotSpan != "abc123.4" {
		t.Fatalf("ParseTraceparent(%q) = %q, %q, %v", v, gotTrace, gotSpan, ok)
	}

	for _, bad := range []string{
		"",
		"00",
		"01-t-aa-bb-span-01",   // wrong version
		"00-t-aa-bb-span-0100", // flags must be two chars
		"00--span-01",          // empty trace id
		"garbage",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed input", bad)
		}
	}
}

func TestNewTraceFromJoinsSeed(t *testing.T) {
	seed := TraceSeed{TraceID: "t-entry-1", ParentSpanID: "seg0.1", LinkTraceID: "t-dead-7"}
	ctx := WithTraceSeed(context.Background(), seed)

	tr := NewTraceFrom(ctx)
	if tr.ID() != seed.TraceID {
		t.Fatalf("joined trace id %q, want %q", tr.ID(), seed.TraceID)
	}
	sctx, root := tr.StartRoot(ctx, "request")
	_, span := StartSpan(sctx, "stage")
	span.End()
	root.End()

	tree := tr.Tree()
	if tree.TraceID != seed.TraceID {
		t.Fatalf("root TraceID %q, want %q", tree.TraceID, seed.TraceID)
	}
	if tree.ParentSpanID != seed.ParentSpanID {
		t.Fatalf("root ParentSpanID %q, want remote parent %q", tree.ParentSpanID, seed.ParentSpanID)
	}
	if got := tree.Attrs["link_trace_id"]; got != seed.LinkTraceID {
		t.Fatalf("root link_trace_id attr = %v, want %q", got, seed.LinkTraceID)
	}

	// No seed installed: identical to NewTrace — fresh id, no remote
	// parent, no link.
	fresh := NewTraceFrom(context.Background())
	if fresh.ID() == seed.TraceID || fresh.ID() == "" {
		t.Fatalf("unseeded trace id %q", fresh.ID())
	}
	_, r2 := fresh.StartRoot(context.Background(), "request")
	r2.End()
	if tree2 := fresh.Tree(); tree2.ParentSpanID != "" || tree2.Attrs["link_trace_id"] != nil {
		t.Fatalf("unseeded tree carries propagation state: %+v", tree2)
	}
}

// TestMergeSegmentsStitchesCrossNodeTrace simulates the proxy hop: the
// entry node's segment holds the "proxy" span, the owner joins via the
// seed carrying that span's wire id, and MergeSegments reattaches the
// owner's segment beneath it.
func TestMergeSegmentsStitchesCrossNodeTrace(t *testing.T) {
	entry := NewTrace()
	ectx, proxy := entry.StartRoot(context.Background(), "proxy")
	traceID, parentSpan, ok := SpanContext(ectx)
	if !ok || traceID != entry.ID() {
		t.Fatalf("SpanContext = %q, %q, %v", traceID, parentSpan, ok)
	}
	proxy.End()

	// The owner parses the traceparent into a seed and joins.
	ownerCtx := WithTraceSeed(context.Background(), TraceSeed{TraceID: traceID, ParentSpanID: parentSpan})
	owner := NewTraceFrom(ownerCtx)
	octx, req := owner.StartRoot(ownerCtx, "request")
	_, stage := StartSpan(octx, "cluster")
	stage.End()
	req.End()

	merged := MergeSegments([]*SpanNode{owner.Tree(), entry.Tree()})
	if merged.Name != "proxy" {
		t.Fatalf("merged root %q, want the entry segment's proxy span", merged.Name)
	}
	if len(merged.Children) != 1 || merged.Children[0].Name != "request" {
		t.Fatalf("owner segment not nested under proxy: %+v", merged)
	}
	if merged.Children[0].TraceID != merged.TraceID {
		t.Fatalf("stitched tree spans two trace ids: %q vs %q", merged.Children[0].TraceID, merged.TraceID)
	}

	// A segment whose parent span is gone (evicted ring, dead peer)
	// still surfaces: attached under the root, ParentSpanID visible.
	orphanT := NewTraceFrom(WithTraceSeed(context.Background(),
		TraceSeed{TraceID: traceID, ParentSpanID: "gone.99"}))
	_, o := orphanT.StartRoot(context.Background(), "orphan")
	o.End()
	merged = MergeSegments([]*SpanNode{entry.Tree(), orphanT.Tree()})
	var found *SpanNode
	for _, c := range merged.Children {
		if c.Name == "orphan" {
			found = c
		}
	}
	if found == nil || found.ParentSpanID != "gone.99" {
		t.Fatalf("orphan segment lost: %+v", merged)
	}

	if MergeSegments(nil) != nil {
		t.Fatal("MergeSegments(nil) != nil")
	}
	single := entry.Tree()
	if MergeSegments([]*SpanNode{nil, single}) != single {
		t.Fatal("single segment must be returned as-is")
	}
}

// TestMergeSegmentsLeavesInputs: merging the same segments twice gives
// equal trees and leaves every input as it was — the daemon merges a
// job's stored trace on every GET of it.
func TestMergeSegmentsLeavesInputs(t *testing.T) {
	entry := NewTrace()
	ectx, proxy := entry.StartRoot(context.Background(), "proxy")
	_, parentSpan, _ := SpanContext(ectx)
	_, push := StartSpan(ectx, "csr.push")
	push.End()
	proxy.End()
	owner := NewTraceFrom(WithTraceSeed(context.Background(), TraceSeed{TraceID: entry.ID(), ParentSpanID: parentSpan}))
	octx, req := owner.StartRoot(context.Background(), "request")
	_, stage := StartSpan(octx, "cluster")
	stage.End()
	req.End()
	orphan := NewTraceFrom(WithTraceSeed(context.Background(), TraceSeed{TraceID: entry.ID(), ParentSpanID: "gone.1"}))
	_, o := orphan.StartRoot(context.Background(), "orphan")
	o.End()

	segs := []*SpanNode{owner.Tree(), entry.Tree(), orphan.Tree()}
	before, err := json.Marshal(segs)
	if err != nil {
		t.Fatal(err)
	}
	first, second := MergeSegments(segs), MergeSegments(segs)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two merges of the same segments differ:\n%+v\n%+v", first, second)
	}
	after, err := json.Marshal(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("MergeSegments modified its inputs:\nbefore %s\nafter  %s", before, after)
	}
	if first.Name != "proxy" || len(first.Children) != 3 || first.Children[1].Name != "request" ||
		first.Children[2].Name != "orphan" {
		t.Fatalf("merged tree = %+v", first)
	}

	// Segments that all name a known parent (a cycle) still merge, each
	// once: the first one roots the tree.
	a := &SpanNode{Name: "a", SpanID: "a.1", ParentSpanID: "b.1"}
	b := &SpanNode{Name: "b", SpanID: "b.1", ParentSpanID: "a.1"}
	if m := MergeSegments([]*SpanNode{a, b}); m.Name != "a" || len(m.Children) != 1 || len(m.Children[0].Children) != 0 {
		t.Fatalf("cyclic segments merged into %+v", m)
	}
}

func TestTraceSinkByTraceID(t *testing.T) {
	sink := NewTraceSink(nil, 10)
	tr := NewTrace()
	_, root := tr.StartRoot(context.Background(), "mine")
	root.End()
	sink.Retain(tr.Tree())
	other := NewTrace()
	_, root2 := other.StartRoot(context.Background(), "other")
	root2.End()
	sink.Retain(other.Tree())

	segs := sink.ByTraceID(tr.ID())
	if len(segs) != 1 || segs[0].Name != "mine" {
		t.Fatalf("ByTraceID(%q) = %+v", tr.ID(), segs)
	}
	if segs := sink.ByTraceID("t-nope"); len(segs) != 0 {
		t.Fatalf("ByTraceID miss returned %+v", segs)
	}
}

func TestStatsOfNilTree(t *testing.T) {
	if StatsOf(nil) != nil {
		t.Fatal("a nil tree must read as nil stats")
	}
	// With no trace there is no stage span to meter: both halves are
	// no-ops.
	MeterStage(nil)()
}

// TestStatsOfReadsTheTree: every field of the snapshot comes off a span
// of the run's tree — the queue span's wall clock, the stage spans by
// name (a resumed stage, seen twice, sums), their cache_hit, the
// spilled bytes, the checkpoints and the out-of-core peak — and no
// other span counts.
func TestStatsOfReadsTheTree(t *testing.T) {
	tree := &SpanNode{Name: "request", DurationMillis: 100, Children: []*SpanNode{
		{Name: "queue", DurationMillis: 1.5},
		{Name: "symmetrize", DurationMillis: 10, Attrs: map[string]any{
			"name": "dd", "cache_hit": false, "cpu_millis": 4.0, "alloc_bytes": int64(100)},
			Children: []*SpanNode{
				{Name: "core.symmetrize", Attrs: map[string]any{"resident_peak_bytes": int64(100)}, Children: []*SpanNode{
					{Name: "csr.write", Attrs: map[string]any{"bytes": int64(64)}},
					{Name: "csr.write", Error: "disk full"}, // wrote nothing: no bytes
				}},
				{Name: "core.symmetrize", Attrs: map[string]any{"resident_peak_bytes": int64(40)}},
			}},
		{Name: "cluster", DurationMillis: 10, Attrs: map[string]any{"cpu_millis": 2.0, "alloc_bytes": int64(50)},
			Children: []*SpanNode{
				{Name: "mcl.iterate", DurationMillis: 9, Attrs: map[string]any{"cache_hit": true}}, // not a stage
				{Name: "mcl.checkpoint", Attrs: map[string]any{"bytes": 20}},
				{Name: "walk.checkpoint", Attrs: map[string]any{"bytes": 12}},
				{Name: "csr.ingest.merge", Attrs: map[string]any{"spill_runs": int64(0), "merged_bytes": int64(1 << 20)}},
			}},
		{Name: "cluster", DurationMillis: 5, Attrs: map[string]any{"cpu_millis": 1.0, "alloc_bytes": int64(0)}},
		{Name: "symmetrize", DurationMillis: 1, Attrs: map[string]any{"cache_hit": true, "cpu_millis": 0.0, "alloc_bytes": int64(0)}},
	}}
	s := StatsOf(tree)
	if s.QueueWaitMillis != 1.5 {
		t.Fatalf("QueueWaitMillis = %v", s.QueueWaitMillis)
	}
	if cl := s.Stages["cluster"]; cl.WallMillis != 15 || cl.CPUMillis != 3 || cl.AllocBytes != 50 {
		t.Fatalf("cluster stage = %+v", cl)
	}
	if sym := s.Stages["symmetrize"]; sym.WallMillis != 11 || sym.CPUMillis != 4 || sym.AllocBytes != 100 {
		t.Fatalf("symmetrize stage = %+v", sym)
	}
	if len(s.Stages) != 2 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("stages %v, cache = %d/%d", s.Stages, s.CacheHits, s.CacheMisses)
	}
	if s.SpillBytes != 64 || s.CheckpointBytes != 32 || s.OOCResidentPeakBytes != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	tree.Children[2].Children[3].Attrs["spill_runs"] = int64(2)
	if got := StatsOf(tree).SpillBytes; got != 64+1<<20 {
		t.Fatalf("SpillBytes with a spilled merge = %d", got)
	}
}

// TestMeterStageRecordsDeltas: a metered stage span carries its CPU and
// allocation deltas, and StatsOf reads them back beside its wall clock.
func TestMeterStageRecordsDeltas(t *testing.T) {
	tr := NewTrace()
	ctx, root := tr.StartRoot(context.Background(), "run")
	_, sp := StartSpan(ctx, "symmetrize")
	done := MeterStage(sp)
	// Burn a little wall clock and allocation so the deltas are
	// observable.
	buf := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		buf = append(buf, make([]byte, 4096))
	}
	_ = buf
	time.Sleep(2 * time.Millisecond)
	done()
	sp.End()
	root.End()

	s := StatsOf(tr.Tree())
	st, ok := s.Stages["symmetrize"]
	if !ok {
		t.Fatalf("no symmetrize stage: %+v", s)
	}
	if st.WallMillis <= 0 {
		t.Fatalf("WallMillis = %v", st.WallMillis)
	}
	if st.AllocBytes <= 0 {
		t.Fatalf("AllocBytes = %v", st.AllocBytes)
	}
}

func TestRuntimeMetricsExposition(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r, "symclusterd")
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, name := range []string{
		"symclusterd_runtime_goroutines",
		"symclusterd_runtime_heap_inuse_bytes",
		"symclusterd_runtime_gc_pause_seconds_total",
		"symclusterd_runtime_open_fds",
	} {
		if !strings.Contains(out, name+" ") {
			t.Fatalf("no %s sample in exposition:\n%s", name, out)
		}
	}
}
