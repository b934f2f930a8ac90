package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
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
// it. The client stamps it on every attempt from the context deadline
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
// mode go through. Each request gets up to MaxAttempts tries, each
// bounded only by the caller's context; an attempt fails on a
// transport error or a shedding status (429 Too Many Requests / 503
// Service Unavailable). Between attempts the client sleeps the server's
// Retry-After when one was given, otherwise capped exponential backoff
// with full jitter — both bounded by MaxWait so a misbehaving server
// can't park a caller. A node's hops use one attempt: the caller, not
// the proxy, decides whether to try again.
//
// This file is the only place in the module allowed to construct an
// http.Client (enforced by `make lint`): a raw client stamps no
// deadline, trace or forwarding header, skips the proxy.forward fault
// site, and neither backs off nor honors Retry-After.
type Client struct {
	cfg  ClientConfig
	http *http.Client
}

// ClientConfig sizes a Client. Zero values select the defaults noted
// on each field.
type ClientConfig struct {
	// MaxAttempts bounds total tries per request (default 4; 1 disables
	// retries).
	MaxAttempts int
	// BaseWait is the first backoff step (default 100ms); attempt n
	// waits ~BaseWait×2ⁿ, jittered.
	BaseWait time.Duration
	// MaxWait caps every wait, whether from backoff or a server's
	// Retry-After (default 5s).
	MaxWait time.Duration
	// OnRetry, when non-nil, is called once per retry sleep with the
	// reason ("status 503", "connection refused", …) — the CLI's retry
	// log.
	OnRetry func(reason string)
	// Transport overrides the HTTP transport (tests; nil means
	// http.DefaultTransport).
	Transport http.RoundTripper
	// Jitter overrides the backoff jitter for deterministic tests; nil
	// selects full jitter in [d/2, d].
	Jitter func(d time.Duration) time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseWait <= 0 {
		c.BaseWait = 100 * time.Millisecond
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 5 * time.Second
	}
	if c.Jitter == nil {
		c.Jitter = func(d time.Duration) time.Duration {
			if d <= 1 {
				return d
			}
			return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		}
	}
	return c
}

// NewClient builds a client. It has no timeout of its own: the
// caller's context bounds every attempt, body read included.
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, http: &http.Client{Transport: cfg.Transport}}
}

// Retryable reports whether an HTTP status is worth retrying: the two
// shedding codes whose contract is "come back later".
func Retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// RetryAfter parses a response's Retry-After header (delta-seconds or
// HTTP-date). ok is false when the header is absent or malformed.
func RetryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Do sends one buffered-body request with retries. header may be nil;
// it is copied into every attempt. The returned response's body must
// be closed by the caller; a non-2xx final response is returned, not
// turned into an error, so callers can relay status and body.
func (c *Client) Do(ctx context.Context, method, url string, header http.Header, body []byte) (*http.Response, error) {
	return c.DoStream(ctx, method, url, header, func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(body)), nil
	}, int64(len(body)))
}

// DoStream is Do for bodies too large to buffer: open is called once
// per attempt to produce a fresh body reader (e.g. re-opening a file),
// so retries never resend a half-consumed stream. contentLength < 0
// means unknown.
func (c *Client) DoStream(ctx context.Context, method, url string, header http.Header, open func() (io.ReadCloser, error), contentLength int64) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		resp, err := c.attempt(ctx, method, url, header, open, contentLength)
		if err == nil && !Retryable(resp.StatusCode) {
			return resp, nil
		}
		last := attempt >= c.cfg.MaxAttempts
		var wait time.Duration
		var reason string
		if err != nil {
			if ctx.Err() != nil {
				// The caller's context expired (or was canceled): the
				// request is dead no matter how many attempts remain.
				return nil, err
			}
			if last {
				return nil, fmt.Errorf("cluster: %s %s failed after %d attempts: %w", method, url, attempt, err)
			}
			wait = c.backoff(attempt)
			reason = fmt.Sprintf("attempt error: %v", err)
			if !deadlineAllows(ctx, wait) {
				return nil, fmt.Errorf("cluster: %s %s: retry would outlive the deadline: %w", method, url, err)
			}
		} else {
			if last {
				return resp, nil // relay the final 429/503 to the caller
			}
			if ra, ok := RetryAfter(resp); ok {
				if ra > c.cfg.MaxWait {
					ra = c.cfg.MaxWait
				}
				wait = ra
			} else {
				wait = c.backoff(attempt)
			}
			reason = "status " + strconv.Itoa(resp.StatusCode)
			// Never sleep past the point where the request is already
			// dead: when honoring the wait (Retry-After or backoff) would
			// outlive the caller's deadline, relay the shed response now —
			// the caller still has time to act on it.
			if !deadlineAllows(ctx, wait) {
				return resp, nil
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry(reason)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// deadlineAllows reports whether sleeping for wait still leaves time
// before ctx's deadline. No deadline always allows.
func deadlineAllows(ctx context.Context, wait time.Duration) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return time.Until(dl) > wait
}

// backoff returns the jittered, capped exponential wait before retrying
// after the given 1-based attempt.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseWait
	for i := 1; i < attempt && d < c.cfg.MaxWait; i++ {
		d *= 2
	}
	if d > c.cfg.MaxWait {
		d = c.cfg.MaxWait
	}
	return c.cfg.Jitter(d)
}

// attempt performs one try under the caller's context. The
// "proxy.forward" fault site fires first, so chaos tests can fail or
// slow individual attempts deterministically.
func (c *Client) attempt(ctx context.Context, method, url string, header http.Header, open func() (io.ReadCloser, error), contentLength int64) (*http.Response, error) {
	if err := faultinject.Fire("proxy.forward"); err != nil {
		return nil, err
	}
	body, err := open()
	if err != nil {
		return nil, fmt.Errorf("cluster: opening request body: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		body.Close()
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
