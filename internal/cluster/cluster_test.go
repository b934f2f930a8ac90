package cluster

import (
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
	"symcluster/internal/obs"
)

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("http://a:8080, http://b:8081*3 ,https://c:9000")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	if len(peers) != 3 {
		t.Fatalf("got %d peers, want 3", len(peers))
	}
	want := []Peer{
		{Name: "a:8080", URL: "http://a:8080", Weight: 1},
		{Name: "b:8081", URL: "http://b:8081", Weight: 3},
		{Name: "c:9000", URL: "https://c:9000", Weight: 1},
	}
	for i, w := range want {
		if *peers[i] != w {
			t.Errorf("peer %d = %+v, want %+v", i, *peers[i], w)
		}
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		" , ",
		"ftp://a:1",
		"http://a:1*0",
		"http://a:1*x",
		"http://a:1/path",
		"http://",
		"http://a:1,http://a:1",
	} {
		if _, err := ParsePeers(spec); err == nil {
			t.Errorf("ParsePeers(%q): expected error", spec)
		}
	}
}

func testRing(t *testing.T, names ...string) *Ring {
	t.Helper()
	var peers []*Peer
	for _, n := range names {
		p, err := ParsePeer("http://" + n)
		if err != nil {
			t.Fatalf("ParsePeer(%q): %v", n, err)
		}
		peers = append(peers, p)
	}
	return NewRing(peers, 0)
}

func TestRingDeterministicAndStable(t *testing.T) {
	r1 := testRing(t, "a:1", "b:2", "c:3")
	r2 := testRing(t, "c:3", "a:1", "b:2") // order must not matter
	for fp := uint64(0); fp < 500; fp++ {
		o1, ok1 := r1.Owner(fp, nil)
		o2, ok2 := r2.Owner(fp, nil)
		if !ok1 || !ok2 {
			t.Fatalf("fp %d: no owner (ok1=%v ok2=%v)", fp, ok1, ok2)
		}
		if o1.Name != o2.Name {
			t.Fatalf("fp %d: owner depends on peer order: %s vs %s", fp, o1.Name, o2.Name)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := testRing(t, "a:1", "b:2", "c:3", "d:4")
	counts := map[string]int{}
	const n = 20000
	for fp := uint64(0); fp < n; fp++ {
		o, _ := r.Owner(fp, nil)
		counts[o.Name]++
	}
	for name, c := range counts {
		share := float64(c) / n
		if share < 0.10 || share > 0.45 {
			t.Errorf("peer %s owns %.1f%% of keys — ring badly unbalanced", name, share*100)
		}
	}
}

func TestRingWeights(t *testing.T) {
	peers := []*Peer{
		{Name: "small", URL: "http://s:1", Weight: 1},
		{Name: "big", URL: "http://b:1", Weight: 4},
	}
	r := NewRing(peers, 0)
	counts := map[string]int{}
	const n = 20000
	for fp := uint64(0); fp < n; fp++ {
		o, _ := r.Owner(fp, nil)
		counts[o.Name]++
	}
	if counts["big"] < 2*counts["small"] {
		t.Errorf("weight-4 peer owns %d keys vs weight-1 peer's %d — want at least 2x", counts["big"], counts["small"])
	}
}

func TestRingFailover(t *testing.T) {
	r := testRing(t, "a:1", "b:2", "c:3")
	down := map[string]bool{}
	healthy := func(name string) bool { return !down[name] }

	// With b down, every key b owned must move to another peer, and
	// keys a/c owned must stay put.
	var moved, kept int
	for fp := uint64(0); fp < 2000; fp++ {
		before, _ := r.Owner(fp, nil)
		down["b:2"] = true
		after, ok := r.Owner(fp, healthy)
		down["b:2"] = false
		if !ok {
			t.Fatalf("fp %d: no owner with one peer down", fp)
		}
		if after.Name == "b:2" {
			t.Fatalf("fp %d: unhealthy peer still owns key", fp)
		}
		if before.Name == "b:2" {
			moved++
		} else if before.Name != after.Name {
			t.Fatalf("fp %d: key moved from healthy peer %s to %s", fp, before.Name, after.Name)
		} else {
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}

	// All peers down: no owner.
	allDown := func(string) bool { return false }
	if _, ok := r.Owner(42, allDown); ok {
		t.Fatal("Owner returned a peer with every peer unhealthy")
	}
}

func TestRetryAfterParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if d, ok := RetryAfter(mk("3")); !ok || d != 3*time.Second {
		t.Errorf("seconds: got %v %v", d, ok)
	}
	if _, ok := RetryAfter(mk("")); ok {
		t.Error("absent header parsed as present")
	}
	if _, ok := RetryAfter(mk("soon")); ok {
		t.Error("garbage header parsed as present")
	}
	if _, ok := RetryAfter(mk("-2")); ok {
		t.Error("negative seconds accepted")
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := RetryAfter(mk(future)); !ok || d <= 5*time.Second || d > 11*time.Second {
		t.Errorf("http-date: got %v %v", d, ok)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d, ok := RetryAfter(mk(past)); !ok || d != 0 {
		t.Errorf("past http-date: got %v %v, want 0 true", d, ok)
	}
}

func TestRetryable(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusOK:                  false,
		http.StatusBadRequest:          false,
		http.StatusNotFound:            false,
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: false,
		http.StatusBadGateway:          false,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      false,
	} {
		if got := Retryable(code); got != want {
			t.Errorf("Retryable(%d) = %v, want %v", code, got, want)
		}
	}
}

func noJitter(d time.Duration) time.Duration { return d }

func TestClientRetriesUntilSuccess(t *testing.T) {
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

	var retries []string
	c := NewClient(ClientConfig{
		MaxAttempts: 4,
		BaseWait:    time.Millisecond,
		MaxWait:     5 * time.Millisecond,
		Jitter:      noJitter,
		OnRetry:     func(reason string) { retries = append(retries, reason) },
	})
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(retries) != 2 || retries[0] != "status 503" {
		t.Fatalf("OnRetry calls = %v", retries)
	}
}

func TestClientRelaysFinalShedStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := NewClient(ClientConfig{MaxAttempts: 2, BaseWait: time.Millisecond, MaxWait: time.Millisecond, Jitter: noJitter})
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the relayed 429", resp.StatusCode)
	}
}

func TestClientReopensBodyPerAttempt(t *testing.T) {
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
	c := NewClient(ClientConfig{MaxAttempts: 3, BaseWait: time.Millisecond, MaxWait: time.Millisecond, Jitter: noJitter})
	resp, err := c.Do(context.Background(), http.MethodPost, srv.URL, nil, []byte("payload"))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if len(got) != 2 || got[0] != "payload" || got[1] != "payload" {
		t.Fatalf("bodies seen by server = %q, want full payload on every attempt", got)
	}
}

func TestClientTransportErrorExhaustsAttempts(t *testing.T) {
	// A listener that is closed immediately: connection refused.
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	url := srv.URL
	srv.Close()

	var retries atomic.Int32
	c := NewClient(ClientConfig{
		MaxAttempts: 3,
		BaseWait:    time.Millisecond,
		MaxWait:     time.Millisecond,
		Jitter:      noJitter,
		OnRetry:     func(string) { retries.Add(1) },
	})
	_, err := c.Do(context.Background(), http.MethodGet, url, nil, nil)
	if err == nil {
		t.Fatal("expected error against closed listener")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not mention exhausted attempts", err)
	}
	if retries.Load() != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", retries.Load())
	}
}

func TestClientHonorsCallerContext(t *testing.T) {
	// A peer sheds with Retry-After far beyond the caller's remaining
	// budget. Sleeping would outlive the request, so the client relays
	// the shed response immediately instead of burning the deadline.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(ClientConfig{MaxAttempts: 5, MaxWait: time.Minute, Jitter: noJitter})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := c.Do(ctx, http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v (want the shed response relayed, not an error)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 relayed", resp.StatusCode)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Do slept past the caller's deadline: %v", time.Since(start))
	}
}

func TestClientBackoffCapped(t *testing.T) {
	c := NewClient(ClientConfig{BaseWait: 10 * time.Millisecond, MaxWait: 40 * time.Millisecond, Jitter: noJitter})
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
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

func TestClientShedRetriesBoundedByMaxAttempts(t *testing.T) {
	// A peer that sheds forever costs MaxAttempts tries, no more: the
	// attempt count is what keeps a retry storm to a fixed multiple.
	srv, calls := shedServer(t, "0")
	var retries atomic.Int32
	c := NewClient(ClientConfig{MaxAttempts: 3, BaseWait: time.Millisecond, MaxWait: time.Millisecond, Jitter: noJitter,
		OnRetry: func(string) { retries.Add(1) }})
	for i := 0; i < 4; i++ {
		resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		resp.Body.Close()
	}
	if calls.Load() != 12 || retries.Load() != 8 {
		t.Fatalf("4 requests: server saw %d calls and OnRetry fired %d times, want 12 and 8", calls.Load(), retries.Load())
	}
}

func TestClientSingleAttemptDisablesRetries(t *testing.T) {
	srv, calls := shedServer(t, "0")
	c := NewClient(ClientConfig{MaxAttempts: 1, OnRetry: func(r string) { t.Errorf("OnRetry(%q) with retries disabled", r) }})
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || calls.Load() != 1 {
		t.Fatalf("status %d after %d calls, want the 503 after 1", resp.StatusCode, calls.Load())
	}
}

func TestClientDoesNotRetryNonShedStatus(t *testing.T) {
	// Only 429 and 503 mean "come back later"; any other answer is the
	// peer's verdict and is relayed from the first attempt.
	for _, code := range []int{http.StatusOK, http.StatusNotFound, http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(code)
			fmt.Fprint(w, "verdict")
		}))
		c := NewClient(ClientConfig{MaxAttempts: 4, BaseWait: time.Millisecond, MaxWait: time.Millisecond, Jitter: noJitter})
		resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
		if err != nil {
			srv.Close()
			t.Fatalf("%d: Do: %v", code, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != code || string(body) != "verdict" || calls.Load() != 1 {
			t.Errorf("%d: relayed %d %q after %d calls, want %d \"verdict\" after 1", code, resp.StatusCode, body, calls.Load(), code)
		}
	}
}

func TestClientCapsRetryAfterAtMaxWait(t *testing.T) {
	// A peer asking for 30 s is waited on for MaxWait only.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	c := NewClient(ClientConfig{MaxAttempts: 2, MaxWait: 20 * time.Millisecond, Jitter: noJitter})
	start := time.Now()
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 2 {
		t.Fatalf("status %d after %d calls, want 200 after 2", resp.StatusCode, calls.Load())
	}
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > 10*time.Second {
		t.Fatalf("retry came after %v, want MaxWait (20ms), not the peer's 30s", waited)
	}
}

func TestClientTransportRetryStopsAtDeadline(t *testing.T) {
	// A backoff that would outlive the caller's deadline is not slept:
	// the transport error comes back at once, after one attempt.
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	url := srv.URL
	srv.Close()
	c := NewClient(ClientConfig{MaxAttempts: 5, BaseWait: 5 * time.Second, MaxWait: 5 * time.Second, Jitter: noJitter,
		OnRetry: func(r string) { t.Errorf("OnRetry(%q): a retry was scheduled past the deadline", r) }})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Do(ctx, http.MethodGet, url, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "outlive the deadline") {
		t.Fatalf("err = %v, want the retry refused for the deadline", err)
	}
	if ctx.Err() != nil {
		t.Fatal("Do returned only after the caller's deadline")
	}
}

func TestClientCancelDuringWait(t *testing.T) {
	// A caller that gives up while the client sleeps between attempts
	// gets its own context error back, without waiting out the sleep.
	// The cancel comes from OnRetry, just before the sleep begins.
	srv, calls := shedServer(t, "30")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewClient(ClientConfig{MaxAttempts: 3, MaxWait: time.Minute, Jitter: noJitter, OnRetry: func(string) { cancel() }})
	start := time.Now()
	_, err := c.Do(ctx, http.MethodGet, srv.URL, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 1 || time.Since(start) > 10*time.Second {
		t.Fatalf("%d calls in %v, want 1 and a prompt return", calls.Load(), time.Since(start))
	}
}

func TestClientSlowAnswerIsOneAttempt(t *testing.T) {
	// An answer slower than the 10 s per-attempt cut the client once
	// had arrives in one attempt: only the caller's deadline bounds it.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-time.After(10*time.Second + 500*time.Millisecond):
			fmt.Fprint(w, "ok")
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := NewClient(ClientConfig{MaxAttempts: 2, Jitter: noJitter, OnRetry: func(r string) { t.Errorf("OnRetry(%q): the slow answer was cut", r) }})
	resp, err := c.Do(ctx, http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" || calls.Load() != 1 {
		t.Fatalf("status %d %q after %d calls, want 200 ok after 1", resp.StatusCode, body, calls.Load())
	}
}

func TestClientFaultSiteFailsOneAttempt(t *testing.T) {
	// The proxy.forward site fails an attempt before it is sent; the
	// client retries it like any transport error.
	defer faultinject.Reset()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { calls.Add(1) }))
	defer srv.Close()
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error, Times: 1})
	c := NewClient(ClientConfig{MaxAttempts: 2, BaseWait: time.Millisecond, MaxWait: time.Millisecond, Jitter: noJitter})
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 1 {
		t.Fatalf("status %d after %d calls reached the server, want 200 after 1", resp.StatusCode, calls.Load())
	}
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error})
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("every attempt failed: err = %v, want the injected error wrapped", err)
	}
}

func TestClientPropagatesTraceAndForwardMarker(t *testing.T) {
	var got atomic.Pointer[http.Header]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Clone()
		got.Store(&h)
	}))
	defer srv.Close()
	c := NewClient(ClientConfig{MaxAttempts: 1})
	send := func(ctx context.Context, hdr http.Header) http.Header {
		t.Helper()
		resp, err := c.Do(ctx, http.MethodGet, srv.URL, hdr, nil)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		resp.Body.Close()
		return *got.Load()
	}

	// No span, no deadline, no marker: none of the headers appear.
	h := send(context.Background(), nil)
	for _, name := range []string{obs.TraceparentHeader, DeadlineHeader, ForwardHeader} {
		if v := h.Get(name); v != "" {
			t.Errorf("%s = %q on a bare request", name, v)
		}
	}

	// Inside a span the hop carries it, and a marked hop its forwarder.
	ctx, span := obs.NewTraceFrom(context.Background()).StartRoot(context.Background(), "hop")
	defer span.End()
	hdr := http.Header{}
	MarkForwarded(hdr, "node-a")
	h = send(ctx, hdr)
	traceID, spanID, _ := obs.SpanContext(ctx)
	if gotTrace, gotSpan, ok := obs.ParseTraceparent(h.Get(obs.TraceparentHeader)); !ok || gotTrace != traceID || gotSpan != spanID {
		t.Errorf("traceparent %q, want trace %s span %s", h.Get(obs.TraceparentHeader), traceID, spanID)
	}
	if v := h.Get(ForwardHeader); v != "node-a" {
		t.Errorf("%s = %q, want node-a", ForwardHeader, v)
	}

	// A traceparent the caller set itself is relayed, not replaced.
	hdr = http.Header{}
	hdr.Set(obs.TraceparentHeader, obs.FormatTraceparent("t-upstream", "s.1"))
	if v := send(ctx, hdr).Get(obs.TraceparentHeader); v != obs.FormatTraceparent("t-upstream", "s.1") {
		t.Errorf("relayed traceparent = %q, want the caller's", v)
	}
}

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	SetDeadlineHeader(h, 1500*time.Millisecond)
	got, ok := ParseDeadlineHeader(h)
	if !ok || got != 1500*time.Millisecond {
		t.Fatalf("round trip = %v, %v; want 1.5s, true", got, ok)
	}
	// A budget already spent clamps to zero, not a negative sleep.
	SetDeadlineHeader(h, -time.Second)
	got, ok = ParseDeadlineHeader(h)
	if !ok || got != 0 {
		t.Fatalf("negative budget = %v, %v; want 0, true", got, ok)
	}
}

func TestDeadlineHeaderMalformed(t *testing.T) {
	for _, v := range []string{"", "abc", "12.5x", "-", "9e99e9"} {
		h := http.Header{}
		if v != "" {
			h.Set(DeadlineHeader, v)
		}
		if _, ok := ParseDeadlineHeader(h); ok {
			t.Fatalf("ParseDeadlineHeader accepted %q", v)
		}
	}
}

func TestClientStampsDeadlineHeader(t *testing.T) {
	var gotMs atomic.Int64
	gotMs.Store(-1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if budget, ok := ParseDeadlineHeader(r.Header); ok {
			gotMs.Store(budget.Milliseconds())
		}
	}))
	defer srv.Close()
	c := NewClient(ClientConfig{MaxAttempts: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := c.Do(ctx, http.MethodGet, srv.URL, nil, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	ms := gotMs.Load()
	// remaining(≈2000ms) minus the hop margin, minus scheduling.
	if want := (2*time.Second - hopMargin).Milliseconds(); ms <= 0 || ms > want {
		t.Fatalf("propagated budget = %dms, want (0, %d]", ms, want)
	}
}
