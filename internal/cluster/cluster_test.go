package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

func TestClientSlowAnswerIsOneAttempt(t *testing.T) {
	// An answer slower than the 10 s per-attempt cut the client once
	// had arrives in one request: only the caller's deadline bounds it.
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
	resp, err := NewClient().Do(ctx, http.MethodGet, srv.URL, nil, nil, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" || calls.Load() != 1 {
		t.Fatalf("status %d %q after %d calls, want 200 ok after 1", resp.StatusCode, body, calls.Load())
	}
}

func TestClientFaultSiteFailsOneRequest(t *testing.T) {
	// The proxy.forward site fails a request before it is sent, and the
	// client hands the injected error back without trying again.
	defer faultinject.Reset()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { calls.Add(1) }))
	defer srv.Close()
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error, Times: 1})
	c := NewClient()
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil, 0); !errors.Is(err, faultinject.ErrInjected) || calls.Load() != 0 {
		t.Fatalf("err = %v after %d calls reached the server, want the injected error after 0", err, calls.Load())
	}
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL, nil, nil, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 1 {
		t.Fatalf("status %d after %d calls reached the server, want 200 after 1", resp.StatusCode, calls.Load())
	}
}

func TestClientShedIsOneRequestAndFileBodyStreams(t *testing.T) {
	// A peer that sheds sees one request: the 503 and its Retry-After
	// come back to the caller. A file body goes out whole, with the
	// length the caller declared rather than chunked.
	var calls atomic.Int32
	var gotLen atomic.Int64
	var gotBody atomic.Pointer[string]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		gotLen.Store(r.ContentLength)
		b, _ := io.ReadAll(r.Body)
		body := string(b)
		gotBody.Store(&body)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	path := filepath.Join(t.TempDir(), "graph.csr")
	payload := strings.Repeat("csr bytes ", 1000)
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resp, err := NewClient().Do(context.Background(), http.MethodPut, srv.URL, nil, f, int64(len(payload)))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" || calls.Load() != 1 {
		t.Fatalf("status %d Retry-After=%q after %d requests, want 503 1 after 1", resp.StatusCode, resp.Header.Get("Retry-After"), calls.Load())
	}
	if gotLen.Load() != int64(len(payload)) || *gotBody.Load() != payload {
		t.Fatalf("peer saw Content-Length %d and %d body bytes, want %d of each", gotLen.Load(), len(*gotBody.Load()), len(payload))
	}
}

func TestClientPropagatesTraceAndForwardMarker(t *testing.T) {
	var got atomic.Pointer[http.Header]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Clone()
		got.Store(&h)
	}))
	defer srv.Close()
	c := NewClient()
	send := func(ctx context.Context, hdr http.Header) http.Header {
		t.Helper()
		resp, err := c.Do(ctx, http.MethodGet, srv.URL, hdr, nil, 0)
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
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := NewClient().Do(ctx, http.MethodGet, srv.URL, nil, nil, 0)
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
