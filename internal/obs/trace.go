package obs

import (
	"bytes"
	"cmp"
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
// format (see FormatTraceparent). Only internal/cluster's client may
// set it; the server middleware parses it.
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
// root node, and the "trace" object of CLI/daemon responses embeds it.
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

// TraceSink receives finished span trees. Export writes each as one
// JSON line to the writer, when one is set; Retain keeps a tree in a
// ring of the last few, which ByTraceID serves. The daemon retains
// only its hop segments — the trees a peer stitching a job's trace asks
// for — each a handful of spans, so the ring is bounded by count alone.
// Safe for concurrent use.
type TraceSink struct {
	mu   sync.Mutex
	w    io.Writer
	size int
	ring []*SpanNode // oldest first
}

// NewTraceSink builds a sink writing JSONL to w (nil for none) whose
// ring holds the last ringSize retained trees (clamped to at least 1).
func NewTraceSink(w io.Writer, ringSize int) *TraceSink {
	return &TraceSink{w: w, size: max(ringSize, 1)}
}

// Export writes a finished trace's span tree (Trace.Tree) as one JSON
// line; a nil tree (a trace with no spans) is dropped. Encode and write
// errors are reported on stderr but never fail the request that
// produced the trace.
func (s *TraceSink) Export(root *SpanNode) {
	if root == nil || s.w == nil {
		return
	}
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(root); err != nil {
		fmt.Fprintf(os.Stderr, "obs: trace sink encode: %v\n", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(line.Bytes()); err != nil {
		fmt.Fprintf(os.Stderr, "obs: trace sink write: %v\n", err)
	}
}

// Retain keeps root in the ring for ByTraceID, evicting the oldest tree
// past the ring's size; a nil tree is dropped. It does not Export.
func (s *TraceSink) Retain(root *SpanNode) {
	if root == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == s.size {
		copy(s.ring, s.ring[1:])
		s.ring = s.ring[:s.size-1]
	}
	s.ring = append(s.ring, root)
}

// ByTraceID returns the retained segments of one distributed trace,
// oldest first. Peers call this (via GET /internal/v1/traces/{id}) to
// collect remote segments for MergeSegments.
func (s *TraceSink) ByTraceID(id string) []*SpanNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*SpanNode
	for _, n := range s.ring {
		if n.TraceID == id {
			out = append(out, n)
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
//
// The inputs are never modified: every node on the way to a graft is
// copied (the copies share the inputs' attribute maps), so a caller may
// merge a tree it keeps — a job's stored trace — as often as it likes.
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
	spans := make(map[string]bool)
	var index func(n *SpanNode)
	index = func(n *SpanNode) {
		if n.SpanID != "" {
			spans[n.SpanID] = true
		}
		for _, c := range n.Children {
			index(c)
		}
	}
	for _, s := range segs {
		index(s)
	}
	// under lists the segments to graft beneath each span id.
	under := make(map[string][]*SpanNode)
	var root, orphan *SpanNode
	for _, s := range segs {
		switch {
		case s.ParentSpanID == "" && root == nil:
			root = s
		case s.ParentSpanID != "" && spans[s.ParentSpanID]:
			under[s.ParentSpanID] = append(under[s.ParentSpanID], s)
		case orphan == nil:
			orphan = s
		}
	}
	if root == nil {
		root = cmp.Or(orphan, segs[0]) // segs[0]: every segment hangs in a cycle
	}
	// placed marks a segment once it has a place in the output, so a
	// segment parented inside itself, or a cycle of segments, is
	// grafted once and terminates.
	placed := map[*SpanNode]bool{root: true}
	var graft func(n *SpanNode) *SpanNode
	graft = func(n *SpanNode) *SpanNode {
		c := *n
		c.Children = make([]*SpanNode, 0, len(n.Children))
		for _, ch := range n.Children {
			c.Children = append(c.Children, graft(ch))
		}
		for _, seg := range under[n.SpanID] {
			if !placed[seg] {
				placed[seg] = true
				c.Children = append(c.Children, graft(seg))
			}
		}
		if len(c.Children) == 0 {
			c.Children = nil
		}
		return &c
	}
	out := graft(root)
	for _, s := range segs {
		if !placed[s] {
			placed[s] = true
			out.Children = append(out.Children, graft(s))
		}
	}
	return out
}
