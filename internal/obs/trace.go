package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values must be
// JSON-marshalable; the wire format renders them under "attrs".
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr (shorthand for span call sites).
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// traceSeq numbers traces within the process; combined with the
// process start time it makes trace ids unique across restarts.
var (
	traceSeq  atomic.Uint64
	traceBase = time.Now().UnixNano()
)

// Trace collects the spans of one logical operation (an HTTP request,
// a CLI run, an async job). Create with NewTrace, begin the root span
// with StartRoot, and read the finished tree with Tree. A Trace is
// safe for concurrent use by the spans it owns.
//
// A Trace is one *segment* of a possibly distributed trace: when a
// request hops to a peer node, the receiver joins the same trace id via
// NewTraceFrom, and each node exports its own segment. Span ids are
// namespaced by a process-unique segment prefix so segments produced
// independently on different nodes never collide and can be stitched
// back into one tree with MergeSegments.
type Trace struct {
	id  string
	seg string // process-unique wire-id prefix for this segment's spans

	// remoteParent is the wire span id of the parent span on the sending
	// node when this segment was joined from a TraceSeed; it surfaces as
	// the root SpanNode's ParentSpanID so MergeSegments can reattach it.
	remoteParent string
	// linkTrace is the trace id of a causally-linked but separate trace
	// (an adopted job records the dead owner's trace here); it surfaces
	// as a link_trace_id attribute on the root span.
	linkTrace string

	mu     sync.Mutex
	nextID uint64
	spans  []*Span
}

// NewTraceID returns a fresh process-unique trace id ("t-…"). Exposed
// so the daemon can mint the id of an async job's trace before the job
// runs and journal it alongside the job record.
func NewTraceID() string {
	return fmt.Sprintf("t-%012x-%06x", traceBase&0xffffffffffff, traceSeq.Add(1))
}

// NewTrace returns an empty trace with a process-unique id.
func NewTrace() *Trace {
	return &Trace{
		id:  NewTraceID(),
		seg: fmt.Sprintf("%012x.%06x", traceBase&0xffffffffffff, traceSeq.Add(1)),
	}
}

// TraceSeed carries the cross-node joining state of a distributed
// trace: the trace id to continue, the wire span id of the remote
// parent to nest beneath, and optionally a linked trace id (the
// originating trace of a crash-adopted job).
type TraceSeed struct {
	TraceID      string
	ParentSpanID string
	LinkTraceID  string
}

// WithTraceSeed installs seed so a later NewTraceFrom joins it.
func WithTraceSeed(ctx context.Context, seed TraceSeed) context.Context {
	return context.WithValue(ctx, seedKey, seed)
}

// TraceSeedFrom returns the installed seed, if any.
func TraceSeedFrom(ctx context.Context) (TraceSeed, bool) {
	seed, ok := ctx.Value(seedKey).(TraceSeed)
	return seed, ok
}

// NewTraceFrom returns a new trace segment joined to the context's
// TraceSeed: it continues the seeded trace id, records the remote
// parent span so the segment can be stitched beneath it, and carries
// the linked trace id onto the root span. With no seed installed it is
// identical to NewTrace.
func NewTraceFrom(ctx context.Context) *Trace {
	t := NewTrace()
	if seed, ok := TraceSeedFrom(ctx); ok {
		if seed.TraceID != "" {
			t.id = seed.TraceID
		}
		t.remoteParent = seed.ParentSpanID
		t.linkTrace = seed.LinkTraceID
	}
	return t
}

// ID returns the trace id ("t-…").
func (t *Trace) ID() string { return t.id }

// wireID renders a span's globally-unique wire id.
func (t *Trace) wireID(spanID uint64) string {
	return t.seg + "." + strconv.FormatUint(spanID, 16)
}

// SpanContext returns the trace id and wire span id of the context's
// current span, for injecting into an outbound request header. ok is
// false when no span is active.
func SpanContext(ctx context.Context) (traceID, spanID string, ok bool) {
	s, _ := ctx.Value(spanKey).(*Span)
	if s == nil {
		return "", "", false
	}
	return s.t.id, s.t.wireID(s.id), true
}

// TraceparentHeader is the header carrying trace propagation state on
// forwarded and internal peer requests, in a W3C-traceparent-style
// format (see FormatTraceparent). Only internal/cluster's retrying
// client may set it; the server middleware parses it.
const TraceparentHeader = "Traceparent"

// FormatTraceparent renders the propagation header value:
//
//	00-<trace id>-<wire span id>-01
//
// The trace id may itself contain dashes; the wire span id never does,
// so ParseTraceparent splits unambiguously from the right.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent parses a FormatTraceparent value. ok is false for
// anything malformed (wrong version, missing fields), in which case the
// request simply starts a fresh trace.
func ParseTraceparent(v string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || parts[0] != "00" || len(parts[len(parts)-1]) != 2 {
		return "", "", false
	}
	spanID = parts[len(parts)-2]
	traceID = strings.Join(parts[1:len(parts)-2], "-")
	if traceID == "" || spanID == "" {
		return "", "", false
	}
	return traceID, spanID, true
}

// start allocates and records a new span. Spans are appended at start
// time, so Tree's sibling order is span creation order.
func (t *Trace) start(name string, parent uint64, attrs []Attr) *Span {
	t.mu.Lock()
	t.nextID++
	s := &Span{
		t:      t,
		id:     t.nextID,
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  append([]Attr(nil), attrs...),
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// StartRoot begins the root span of t and installs it in ctx so
// StartSpan calls underneath nest beneath it. Each trace has exactly
// one root; calling StartRoot twice is a programming error (the second
// root would detach the tree) and panics.
func (t *Trace) StartRoot(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t.mu.Lock()
	rooted := len(t.spans) > 0
	t.mu.Unlock()
	if rooted {
		panic("obs: StartRoot called twice on one trace")
	}
	if t.linkTrace != "" {
		attrs = append(append([]Attr(nil), attrs...), A("link_trace_id", t.linkTrace))
	}
	s := t.start(name, 0, attrs)
	return context.WithValue(ctx, spanKey, s), s
}

// StartSpan begins a child of the context's current span and installs
// it as the new current span. When no trace is active — the library
// default — it returns ctx unchanged and a nil span, and every method
// on the nil span is a safe no-op, so call sites never branch on
// whether tracing is on.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.t.start(name, parent.id, attrs)
	return context.WithValue(ctx, spanKey, s), s
}

// Span is one timed, named, attributed node of a trace.
type Span struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu     sync.Mutex
	end    time.Time
	attrs  []Attr
	errMsg string
}

// SetAttr annotates the span. Safe on a nil span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span. Safe on a nil span; the first End wins.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording err (when non-nil) so failed and
// cancelled stages stay visible in the tree instead of vanishing.
// Safe on a nil span.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
		if err != nil {
			s.errMsg = err.Error()
		}
	}
	s.mu.Unlock()
}

// SpanNode is the wire form of a span subtree: the JSONL sink writes
// one root node per line, GET /v1/jobs/{id}/trace returns the job's
// root node, and StageTrace.Spans embeds it in CLI/daemon responses.
type SpanNode struct {
	Name    string `json:"name"`
	TraceID string `json:"trace_id,omitempty"` // set on the root only
	// SpanID is the span's globally-unique wire id (segment prefix +
	// in-trace counter); ParentSpanID is set only on a segment root
	// whose parent span lives on another node, and is what MergeSegments
	// matches against SpanID to stitch segments back together.
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// StartUnixNano and EndUnixNano bound the span; EndUnixNano is 0
	// for a span that never ended (a crashed or leaked stage).
	StartUnixNano  int64          `json:"start_unix_nano"`
	EndUnixNano    int64          `json:"end_unix_nano,omitempty"`
	DurationMillis float64        `json:"duration_millis"`
	Attrs          map[string]any `json:"attrs,omitempty"`
	Error          string         `json:"error,omitempty"`
	Children       []*SpanNode    `json:"children,omitempty"`
}

// Tree assembles the finished span tree. Spans whose parent is missing
// (never possible through the public API) attach to the root; a trace
// with no spans yields nil.
func (t *Trace) Tree() *SpanNode {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[uint64]*SpanNode, len(spans))
	var root *SpanNode
	for _, s := range spans {
		s.mu.Lock()
		n := &SpanNode{
			Name:          s.name,
			SpanID:        t.wireID(s.id),
			StartUnixNano: s.start.UnixNano(),
		}
		if !s.end.IsZero() {
			n.EndUnixNano = s.end.UnixNano()
			n.DurationMillis = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		n.Error = s.errMsg
		s.mu.Unlock()
		nodes[s.id] = n
		if s.parent == 0 && root == nil {
			root = n
			n.TraceID = t.id
			n.ParentSpanID = t.remoteParent
			continue
		}
		parent := nodes[s.parent]
		if parent == nil {
			parent = root
		}
		if parent != nil && parent != n {
			parent.Children = append(parent.Children, n)
		}
	}
	return root
}

// DefaultTraceRingBytes caps the bytes a TraceSink retains when the
// caller does not choose its own cap via SetMaxBytes.
const DefaultTraceRingBytes = 16 << 20

// TraceSink receives finished span trees: each is written as one JSON
// line to the writer (when one is set), and retained in a bounded ring
// so the daemon can serve recent traces without any file configured.
// The ring is bounded both by trace count and by retained bytes (the
// rendered JSON size of each tree), so a few enormous traces cannot
// dominate the heap. Safe for concurrent use.
type TraceSink struct {
	mu       sync.Mutex
	w        io.Writer
	maxCount int
	maxBytes int64
	entries  []sinkEntry // FIFO, oldest first
	bytes    int64
	exported int64
}

type sinkEntry struct {
	node  *SpanNode
	bytes int64
}

// NewTraceSink builds a sink writing JSONL to w (nil for ring-only)
// and retaining the last ringSize traces (clamped to at least 1), up
// to DefaultTraceRingBytes of rendered JSON.
func NewTraceSink(w io.Writer, ringSize int) *TraceSink {
	if ringSize < 1 {
		ringSize = 1
	}
	return &TraceSink{w: w, maxCount: ringSize, maxBytes: DefaultTraceRingBytes}
}

// SetMaxBytes overrides the ring's byte cap (clamped to at least 1;
// the newest trace is always retained even when it alone exceeds the
// cap, so the ring can never go empty through eviction).
func (s *TraceSink) SetMaxBytes(n int64) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.maxBytes = n
	s.evictLocked()
	s.mu.Unlock()
}

func (s *TraceSink) evictLocked() {
	for len(s.entries) > 1 && (len(s.entries) > s.maxCount || s.bytes > s.maxBytes) {
		s.bytes -= s.entries[0].bytes
		s.entries[0] = sinkEntry{}
		s.entries = s.entries[1:]
	}
}

// Export records a finished trace's span tree (Trace.Tree); a nil tree
// (a trace with no spans) is dropped. Write errors are reported on
// stderr once per call but never fail the request that produced the
// trace.
func (s *TraceSink) Export(root *SpanNode) {
	if root == nil {
		return
	}
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(root); err != nil {
		fmt.Fprintf(os.Stderr, "obs: trace sink encode: %v\n", err)
		line.Reset()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, sinkEntry{node: root, bytes: int64(line.Len())})
	s.bytes += int64(line.Len())
	s.evictLocked()
	s.exported++
	if s.w != nil && line.Len() > 0 {
		if _, err := s.w.Write(line.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "obs: trace sink write: %v\n", err)
		}
	}
}

// Exported returns the number of traces exported since construction.
func (s *TraceSink) Exported() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exported
}

// RingBytes returns the rendered-JSON bytes currently retained in the
// ring (the symclusterd_trace_ring_bytes gauge).
func (s *TraceSink) RingBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Recent returns the retained traces, oldest first.
func (s *TraceSink) Recent() []*SpanNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*SpanNode, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.node)
	}
	return out
}

// ByTraceID returns the retained segments of one distributed trace,
// oldest first. Peers call this (via GET /internal/v1/traces/{id}) to
// collect remote segments for MergeSegments.
func (s *TraceSink) ByTraceID(id string) []*SpanNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*SpanNode
	for _, e := range s.entries {
		if e.node.TraceID == id {
			out = append(out, e.node)
		}
	}
	return out
}

// MergeSegments stitches the segments of one distributed trace into a
// single tree: a segment whose root's ParentSpanID matches a span in
// another segment is attached beneath that span; the segment with no
// remote parent becomes the root. Segments whose parent span is
// missing (evicted from a peer's ring, or the peer is gone) attach
// under the root with their ParentSpanID left visible. Returns nil for
// no segments; a single segment is returned as-is.
func MergeSegments(segments []*SpanNode) *SpanNode {
	segs := make([]*SpanNode, 0, len(segments))
	for _, s := range segments {
		if s != nil {
			segs = append(segs, s)
		}
	}
	if len(segs) == 0 {
		return nil
	}
	if len(segs) == 1 {
		return segs[0]
	}
	// Index every span of every segment by wire id.
	byID := make(map[string]*SpanNode)
	var index func(n *SpanNode)
	index = func(n *SpanNode) {
		if n.SpanID != "" {
			byID[n.SpanID] = n
		}
		for _, c := range n.Children {
			index(c)
		}
	}
	for _, s := range segs {
		index(s)
	}
	var root *SpanNode
	var orphans []*SpanNode
	for _, s := range segs {
		if s.ParentSpanID == "" {
			if root == nil {
				root = s
				continue
			}
			orphans = append(orphans, s)
			continue
		}
		if parent := byID[s.ParentSpanID]; parent != nil && parent != s {
			parent.Children = append(parent.Children, s)
			continue
		}
		orphans = append(orphans, s)
	}
	if root == nil {
		root, orphans = orphans[0], orphans[1:]
	}
	root.Children = append(root.Children, orphans...)
	return root
}
