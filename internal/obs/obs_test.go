package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
)

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "orphan", A("k", 1))
	if sp != nil {
		t.Fatalf("StartSpan without a trace returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan without a trace changed the context")
	}
	// All methods must be nil-safe.
	sp.SetAttr("x", 1)
	sp.End()
	sp.EndErr(errors.New("boom"))
}

func TestSpanTreeNestingAndAttrs(t *testing.T) {
	tr := NewTrace()
	ctx, root := tr.StartRoot(context.Background(), "request", A("graph", "g-1"))
	ctx1, symSp := StartSpan(ctx, "symmetrize", A("name", "dd"))
	_, kSp := StartSpan(ctx1, "core.symmetrize")
	kSp.SetAttr("nnz_out", 42)
	kSp.End()
	symSp.End()
	_, cluSp := StartSpan(ctx, "cluster", A("name", "mcl"))
	cluSp.EndErr(errors.New("injected"))
	root.End()

	tree := tr.Tree()
	if tree == nil || tree.Name != "request" {
		t.Fatalf("root = %+v", tree)
	}
	if tree.TraceID != tr.ID() || tree.TraceID == "" {
		t.Fatalf("root trace id %q, want %q", tree.TraceID, tr.ID())
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(tree.Children))
	}
	sym, clu := tree.Children[0], tree.Children[1]
	if sym.Name != "symmetrize" || clu.Name != "cluster" {
		t.Fatalf("children = %q, %q", sym.Name, clu.Name)
	}
	if len(sym.Children) != 1 || sym.Children[0].Name != "core.symmetrize" {
		t.Fatalf("symmetrize children = %+v", sym.Children)
	}
	if got := sym.Children[0].Attrs["nnz_out"]; got != 42 {
		t.Fatalf("nnz_out attr = %v", got)
	}
	if clu.Error != "injected" {
		t.Fatalf("cluster span error = %q, want injected", clu.Error)
	}
	// Timestamps: every span ends after it starts, and children nest
	// inside their parent.
	var check func(n *SpanNode)
	check = func(n *SpanNode) {
		if n.EndUnixNano < n.StartUnixNano {
			t.Fatalf("span %s ends before it starts", n.Name)
		}
		for _, c := range n.Children {
			if c.StartUnixNano < n.StartUnixNano || c.EndUnixNano > n.EndUnixNano {
				t.Fatalf("span %s escapes parent %s", c.Name, n.Name)
			}
			check(c)
		}
	}
	check(tree)
}

func TestStartRootTwicePanics(t *testing.T) {
	tr := NewTrace()
	tr.StartRoot(context.Background(), "a")
	defer func() {
		if recover() == nil {
			t.Fatalf("second StartRoot did not panic")
		}
	}()
	tr.StartRoot(context.Background(), "b")
}

// TestTraceSinkRingAndJSONL: Export writes one JSON line per tree and
// retains nothing; Retain keeps the last ringSize trees, oldest evicted
// first, and writes nothing.
func TestTraceSinkRingAndJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, 2)
	var ids []string
	for i := 0; i < 3; i++ {
		tr := NewTrace()
		_, root := tr.StartRoot(context.Background(), "run")
		root.SetAttr("i", i)
		root.End()
		sink.Export(tr.Tree())
		ids = append(ids, tr.ID())
	}
	if segs := sink.ByTraceID(ids[2]); len(segs) != 0 {
		t.Fatalf("Export retained a tree: %+v", segs)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL sink wrote %d lines, want 3", len(lines))
	}
	for _, l := range lines {
		var node SpanNode
		if err := json.Unmarshal([]byte(l), &node); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if node.Name != "run" {
			t.Fatalf("line root name = %q", node.Name)
		}
	}

	buf.Reset()
	for i, id := range ids {
		sink.Retain(&SpanNode{Name: "hop", TraceID: id, Attrs: map[string]any{"i": i}})
	}
	if buf.Len() != 0 {
		t.Fatalf("Retain wrote %q", buf.String())
	}
	// Only the two newest survive the ring of size 2.
	if segs := sink.ByTraceID(ids[0]); len(segs) != 0 {
		t.Fatalf("the oldest tree outlived the ring: %+v", segs)
	}
	for i, id := range ids[1:] {
		if segs := sink.ByTraceID(id); len(segs) != 1 || segs[0].Attrs["i"] != i+1 {
			t.Fatalf("ByTraceID(%s) = %+v, want tree %d", id, segs, i+1)
		}
	}

	// With no writer, Export is a no-op.
	NewTraceSink(nil, 1).Export(&SpanNode{Name: "run"})
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help text", []float64{0.1, 1, 10}, "stage")
	h.Observe(0.05, "a")
	h.Observe(0.5, "a")
	h.Observe(100, "a")
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP test_seconds help text",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{stage="a",le="0.1"} 1`,
		`test_seconds_bucket{stage="a",le="1"} 2`,
		`test_seconds_bucket{stage="a",le="10"} 2`,
		`test_seconds_bucket{stage="a",le="+Inf"} 3`,
		`test_seconds_sum{stage="a"} 100.55`,
		`test_seconds_count{stage="a"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterGaugeFuncExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", "route", "code").Inc("/v1/x", "200")
	r.Gauge("depth", "queue depth").Set(7)
	r.Func("live_total", "live", TypeCounter, func() float64 { return 3 })
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		`reqs_total{route="/v1/x",code="200"} 1`,
		"# TYPE depth gauge",
		"depth 7",
		"# TYPE live_total counter",
		"live_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "v").Inc("a\"b\\c\nd")
	var buf bytes.Buffer
	r.WriteText(&buf)
	want := `esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, buf.String())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering counter as gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryGetOrCreateIsIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("y_total", "", "l").Inc("v")
	r.Counter("y_total", "", "l").Inc("v")
	if got := r.Counter("y_total", "", "l").Value("v"); got != 2 {
		t.Fatalf("value = %v, want 2 (families not shared)", got)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, "json", slog.LevelInfo).Info("hello", "k", "v")
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("json handler output not JSON: %v: %s", err, buf.String())
	}
	if doc["msg"] != "hello" || doc["k"] != "v" {
		t.Fatalf("json log doc = %v", doc)
	}
	buf.Reset()
	NewLogger(&buf, "text", slog.LevelInfo).Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "msg=hello") {
		t.Fatalf("text handler output = %q", buf.String())
	}
	buf.Reset()
	NewLogger(&buf, "text", slog.LevelInfo).Debug("quiet")
	if buf.Len() != 0 {
		t.Fatalf("debug line emitted at info level: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
		"bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Fatalf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLogFallsBackToDefault(t *testing.T) {
	if Log(context.Background()) == nil {
		t.Fatalf("Log on empty ctx returned nil")
	}
	l := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	if Log(WithLogger(context.Background(), l)) != l {
		t.Fatalf("Log did not return installed logger")
	}
}
