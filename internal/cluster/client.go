package cluster

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"symcluster/internal/faultinject"
	"symcluster/internal/obs"
)

// ForwardHeader marks a request as already forwarded once: the
// receiving node must answer it itself rather than proxy again, so a
// stale ring can never bounce a request in a loop. Its value is the
// forwarding node's name. Like the traceparent header it is set only
// here in internal/cluster (enforced by `make lint`); servers read it
// freely.
const ForwardHeader = "X-Symclusterd-Forwarded"

// MarkForwarded stamps h with the one-hop forwarding marker.
func MarkForwarded(h http.Header, self string) {
	h.Set(ForwardHeader, self)
}

// DeadlineHeader carries the caller's remaining time budget, in whole
// milliseconds, across a hop: "how long are you still willing to wait",
// not an absolute timestamp, so clock skew between nodes cannot corrupt
// it. The client stamps it on every request from the context deadline
// (minus hopMargin, reserving time for the reply to travel back);
// server middleware converts it into a context.WithDeadline, so a
// queued job whose caller has given up is dropped before it burns a
// worker. Like every X-Symclusterd-* header it is written only in this
// package (enforced by `make lint`).
const DeadlineHeader = "X-Symclusterd-Deadline-Ms"

// hopMargin is subtracted from the context's remaining budget when a
// Client stamps DeadlineHeader on an outgoing request, reserving time
// for the reply to travel back so the peer does not spend the caller's
// entire budget computing an answer nobody will be there to read.
const hopMargin = 50 * time.Millisecond

// SetDeadlineHeader stamps h with a remaining budget. Negative budgets
// clamp to zero — an explicit "already dead" the receiver fast-fails.
// Exported because this package is the module's only propagation-header
// writer; tests and clients needing an explicit budget go through it.
func SetDeadlineHeader(h http.Header, remaining time.Duration) {
	if remaining < 0 {
		remaining = 0
	}
	h.Set(DeadlineHeader, strconv.FormatInt(remaining.Milliseconds(), 10))
}

// ParseDeadlineHeader reads a request's remaining-budget header. ok is
// false when the header is absent or malformed (a malformed budget is
// ignored, never treated as zero — that would 504 valid traffic on a
// corrupt proxy).
func ParseDeadlineHeader(h http.Header) (time.Duration, bool) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// Client is the HTTP client every inter-node hop and the CLI's -server
// mode go through. Do is one request under the caller's context: it
// never retries and never waits, and whether to try again is the
// caller's business (only the CLI's -server loop does).
//
// This file is the only place in the module allowed to construct an
// http.Client (enforced by `make lint`): a raw client stamps no
// deadline, trace or forwarding header and skips the proxy.forward
// fault site.
type Client struct {
	http http.Client
}

// NewClient builds a client. It has no timeout of its own: the
// caller's context bounds the request, body read included.
func NewClient() *Client {
	return &Client{}
}

// Do sends one request and returns whatever the peer answered: a
// non-2xx response is returned, not turned into an error, so callers
// can relay status and body, and the caller closes its body. header
// may be nil; it is copied into the request. body may be nil, and
// contentLength is its length (< 0: unknown); a *bytes.Reader body
// lets net/http itself resend an idempotent request whose reused
// connection turned out dead. The "proxy.forward" fault site fires
// first, so chaos tests can fail or slow a hop deterministically.
func (c *Client) Do(ctx context.Context, method, url string, header http.Header, body io.Reader, contentLength int64) (*http.Response, error) {
	if err := faultinject.Fire("proxy.forward"); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	req.ContentLength = contentLength
	for k, vs := range header {
		req.Header[k] = append([]string(nil), vs...)
	}
	// Deadline propagation: the caller's remaining budget rides every
	// hop as DeadlineHeader, minus hopMargin for the reply's travel.
	// Stamped from the live context — overwriting any relayed value, so
	// a forwarded request carries the budget as of THIS hop, not a stale
	// figure from when the entry node received it.
	if dl, ok := ctx.Deadline(); ok {
		SetDeadlineHeader(req.Header, time.Until(dl)-hopMargin)
	}
	// Trace propagation: every hop through this client carries the
	// caller's current span as a traceparent-style header, so the peer
	// joins the same trace instead of starting a disconnected one. This
	// client is the single injection point (enforced by `make lint`).
	if tid, sid, ok := obs.SpanContext(ctx); ok && req.Header.Get(obs.TraceparentHeader) == "" {
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(tid, sid))
	}
	return c.http.Do(req)
}
