package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"symcluster/internal/faultinject"
)

// retries counts the retry lines post logged.
func retries(stderr *bytes.Buffer) int {
	return strings.Count(stderr.String(), "symcluster: retrying: ")
}

// shedServer answers every request 503 with the given Retry-After and
// counts what it saw.
func shedServer(t *testing.T, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// closedURL is the address of a listener already closed: connection
// refused.
func closedURL() string {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	srv.Close()
	return srv.URL
}

func TestRetryAfterParsing(t *testing.T) {
	mk := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	if d, ok := retryAfter(mk("3")); !ok || d != 3*time.Second {
		t.Errorf("seconds: got %v %v", d, ok)
	}
	if _, ok := retryAfter(mk("")); ok {
		t.Error("absent header parsed as present")
	}
	if _, ok := retryAfter(mk("soon")); ok {
		t.Error("garbage header parsed as present")
	}
	if _, ok := retryAfter(mk("-2")); ok {
		t.Error("negative seconds accepted")
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := retryAfter(mk(future)); !ok || d <= 5*time.Second || d > 11*time.Second {
		t.Errorf("http-date: got %v %v", d, ok)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d, ok := retryAfter(mk(past)); !ok || d != 0 {
		t.Errorf("past http-date: got %v %v, want 0 true", d, ok)
	}
}

func TestPostRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	var stderr bytes.Buffer
	resp, err := post(context.Background(), &stderr, srv.URL, nil, nil, 4, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if retries(&stderr) != 2 || !strings.HasPrefix(stderr.String(), "symcluster: retrying: status 503\n") {
		t.Fatalf("retry log = %q", stderr.String())
	}
}

func TestPostRelaysFinalShedStatus(t *testing.T) {
	// A 429 is retried like a 503, and the last one is relayed.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	resp, err := post(context.Background(), io.Discard, srv.URL, nil, nil, 2, time.Millisecond)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || calls.Load() != 2 {
		t.Fatalf("status %d after %d calls, want the relayed 429 after 2", resp.StatusCode, calls.Load())
	}
}

func TestPostResendsWholeBody(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, 32)
		n, _ := r.Body.Read(b)
		got = append(got, string(b[:n]))
		if len(got) < 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	resp, err := post(context.Background(), io.Discard, srv.URL, nil, []byte("payload"), 3, time.Millisecond)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if len(got) != 2 || got[0] != "payload" || got[1] != "payload" {
		t.Fatalf("bodies seen by server = %q, want full payload on every attempt", got)
	}
}

func TestPostTransportErrorExhaustsAttempts(t *testing.T) {
	var stderr bytes.Buffer
	_, err := post(context.Background(), &stderr, closedURL(), nil, nil, 3, time.Millisecond)
	if err == nil {
		t.Fatal("expected error against closed listener")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not mention exhausted attempts", err)
	}
	if retries(&stderr) != 2 {
		t.Fatalf("logged %d retries, want 2: %q", retries(&stderr), stderr.String())
	}
}

func TestPostHonorsCallerContext(t *testing.T) {
	// A peer sheds with Retry-After far beyond the caller's remaining
	// budget. Sleeping would outlive the request, so post relays the
	// shed response immediately instead of burning the deadline.
	srv, _ := shedServer(t, "30")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := post(ctx, io.Discard, srv.URL, nil, nil, 5, time.Minute)
	if err != nil {
		t.Fatalf("post: %v (want the shed response relayed, not an error)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 relayed", resp.StatusCode)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("post slept past the caller's deadline: %v", time.Since(start))
	}
}

func TestBackoffCapped(t *testing.T) {
	want := []time.Duration{100, 200, 400, 400, 400}
	for i, w := range want {
		if got := backoff(i+1, 400*time.Millisecond); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	for _, d := range []time.Duration{0, 1, 2, 3, 100 * time.Millisecond, 15 * time.Second} {
		for i := 0; i < 100; i++ {
			if got := jitter(d); got < d/2 || got > d {
				t.Fatalf("jitter(%v) = %v, want it in [%v, %v]", d, got, d/2, d)
			}
		}
	}
}

func TestPostShedRetriesBoundedByAttempts(t *testing.T) {
	// A peer that sheds forever costs attempts tries, no more: the
	// attempt count is what keeps a retry storm to a fixed multiple.
	srv, calls := shedServer(t, "0")
	var stderr bytes.Buffer
	for i := 0; i < 4; i++ {
		resp, err := post(context.Background(), &stderr, srv.URL, nil, nil, 3, time.Millisecond)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
	}
	if calls.Load() != 12 || retries(&stderr) != 8 {
		t.Fatalf("4 requests: server saw %d calls and %d retries were logged, want 12 and 8", calls.Load(), retries(&stderr))
	}
}

func TestPostSingleAttemptDisablesRetries(t *testing.T) {
	srv, calls := shedServer(t, "0")
	var stderr bytes.Buffer
	resp, err := post(context.Background(), &stderr, srv.URL, nil, nil, 1, 5*time.Second)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || calls.Load() != 1 {
		t.Fatalf("status %d after %d calls, want the 503 after 1", resp.StatusCode, calls.Load())
	}
	if stderr.Len() != 0 {
		t.Fatalf("retry logged with retries disabled: %q", stderr.String())
	}
}

func TestPostDoesNotRetryNonShedStatus(t *testing.T) {
	// Only 429 and 503 mean "come back later"; any other answer is the
	// peer's verdict and is relayed from the first attempt.
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(code)
			fmt.Fprint(w, "verdict")
		}))
		resp, err := post(context.Background(), io.Discard, srv.URL, nil, nil, 4, time.Millisecond)
		if err != nil {
			srv.Close()
			t.Fatalf("%d: post: %v", code, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != code || string(body) != "verdict" || calls.Load() != 1 {
			t.Errorf("%d: relayed %d %q after %d calls, want %d \"verdict\" after 1", code, resp.StatusCode, body, calls.Load(), code)
		}
	}
}

func TestPostCapsRetryAfterAtMaxWait(t *testing.T) {
	// A peer asking for 30 s is waited on for maxWait only.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	start := time.Now()
	resp, err := post(context.Background(), io.Discard, srv.URL, nil, nil, 2, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 2 {
		t.Fatalf("status %d after %d calls, want 200 after 2", resp.StatusCode, calls.Load())
	}
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > 10*time.Second {
		t.Fatalf("retry came after %v, want maxWait (20ms), not the peer's 30s", waited)
	}
}

// reportedDeadline reports a deadline sooner than the one that ends the
// context, so post's budget check does not race a slow dial.
type reportedDeadline struct {
	context.Context
	at time.Time
}

func (c reportedDeadline) Deadline() (time.Time, bool) { return c.at, true }

func TestPostTransportRetryStopsAtDeadline(t *testing.T) {
	// A backoff that would outlive the caller's deadline is not slept:
	// the transport error comes back at once, after one attempt. The
	// first backoff is at least 50 ms; the deadline is 40 ms out.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	_, err := post(reportedDeadline{ctx, time.Now().Add(40 * time.Millisecond)}, &stderr, closedURL(), nil, nil, 5, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "outlive the deadline") {
		t.Fatalf("err = %v, want the retry refused for the deadline", err)
	}
	if stderr.Len() != 0 {
		t.Fatalf("a retry was scheduled past the deadline: %q", stderr.String())
	}
	if ctx.Err() != nil {
		t.Fatal("post returned only after the caller's deadline")
	}
}

// writerFunc is an io.Writer that calls itself.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestPostCancelDuringWait(t *testing.T) {
	// A caller that gives up while post sleeps between attempts gets its
	// own context error back, without waiting out the sleep. The cancel
	// comes from the retry log line, just before the sleep begins.
	srv, calls := shedServer(t, "30")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := post(ctx, writerFunc(func(p []byte) (int, error) { cancel(); return len(p), nil }), srv.URL, nil, nil, 3, time.Minute)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 1 || time.Since(start) > 10*time.Second {
		t.Fatalf("%d calls in %v, want 1 and a prompt return", calls.Load(), time.Since(start))
	}
}

func TestPostRetriesInjectedFault(t *testing.T) {
	// The proxy.forward site fails a try before it is sent; post retries
	// it like any transport error, and gives up with it wrapped when
	// every try fails.
	defer faultinject.Reset()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { calls.Add(1) }))
	defer srv.Close()
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error, Times: 1})
	resp, err := post(context.Background(), io.Discard, srv.URL, nil, nil, 2, time.Millisecond)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 1 {
		t.Fatalf("status %d after %d calls reached the server, want 200 after 1", resp.StatusCode, calls.Load())
	}
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error})
	if _, err := post(context.Background(), io.Discard, srv.URL, nil, nil, 2, time.Millisecond); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("every attempt failed: err = %v, want the injected error wrapped", err)
	}
}
