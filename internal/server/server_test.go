package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	symcluster "symcluster"
	"symcluster/internal/jobstore"
)

// mustFigure1Graph returns the paper's Figure 1 graph for direct
// (non-HTTP) registration in tests.
func mustFigure1Graph(t *testing.T) *symcluster.DirectedGraph {
	t.Helper()
	return symcluster.Figure1().Graph
}

// figure1Edges is the paper's Figure 1 example in the edge-list
// interchange format: sources {0,1} → twins {4,5} → targets {2,3}.
const figure1Edges = `# figure 1
0 4
0 5
1 4
1 5
4 2
4 3
5 2
5 3
`

// mustNew builds a Server or fails the test (New only errors in
// durable mode, on a bad data dir).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %T: %v", v, err)
	}
	return v
}

func registerFigure1(t *testing.T, ts *httptest.Server) GraphInfo {
	t.Helper()
	return registerEdges(t, ts.URL, []byte(figure1Edges))
}

func TestClusterEndToEndWithCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	info := registerFigure1(t, ts)
	if info.Nodes != 6 || info.Edges != 8 {
		t.Fatalf("info = %+v", info)
	}
	if !strings.HasPrefix(info.ID, "g-") {
		t.Fatalf("id = %q", info.ID)
	}

	req := ClusterRequest{
		GraphID:   info.ID,
		Method:    "dd",
		Algorithm: "mcl",
		Inflation: 2,
		Seed:      1,
	}
	resp := postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster: status %d", resp.StatusCode)
	}
	res := decode[ClusterResponse](t, resp)
	if len(res.Assign) != 6 {
		t.Fatalf("assign = %v", res.Assign)
	}
	// Figure 1's point: the twins cluster together despite sharing no
	// edge, and apart from the targets they both point at.
	if res.Assign[4] != res.Assign[5] {
		t.Fatalf("twins split: %v", res.Assign)
	}
	if res.Assign[4] == res.Assign[2] {
		t.Fatalf("twins merged with targets: %v", res.Assign)
	}
	if res.CacheHit {
		t.Fatal("first request claims a cache hit")
	}

	// The identical request is served from the symmetrization cache.
	resp = postJSON(t, ts.URL+"/v1/cluster", req)
	res2 := decode[ClusterResponse](t, resp)
	if !res2.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
	if fmt.Sprint(res2.Assign) != fmt.Sprint(res.Assign) {
		t.Fatalf("cached run diverged: %v vs %v", res2.Assign, res.Assign)
	}

	// A different α is a different cache key.
	alpha := 0.3
	req.Alpha = &alpha
	resp = postJSON(t, ts.URL+"/v1/cluster", req)
	if res3 := decode[ClusterResponse](t, resp); res3.CacheHit {
		t.Fatal("different alpha hit the cache")
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	raw, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"symclusterd_cache_hits_total 1",
		"symclusterd_cache_misses_total 2",
		`symclusterd_requests_total{route="POST /v1/cluster",code="200"} 3`,
		"symclusterd_workers_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestGraphRegistrationIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a := registerFigure1(t, ts)
	b := registerFigure1(t, ts)
	if a.ID != b.ID {
		t.Fatalf("same graph, different ids: %q vs %q", a.ID, b.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[GraphInfo](t, resp); got != a {
		t.Fatalf("lookup = %+v, want %+v", got, a)
	}
}

func TestJSONGraphUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(map[string]string{"edges": figure1Edges})
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if info := decode[GraphInfo](t, resp); info.Nodes != 6 {
		t.Fatalf("info = %+v", info)
	}
}

func TestHandlerRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})
	info := registerFigure1(t, ts)

	cluster := func(mutate func(*ClusterRequest)) ClusterRequest {
		req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1}
		mutate(&req)
		return req
	}

	tests := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"method not allowed on cluster", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/cluster")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed},
		{"malformed json", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"unknown field", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/cluster", "application/json",
				strings.NewReader(`{"graph_id":"x","method":"dd","algorithm":"mcl","bogus":1}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"missing graph id", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.GraphID = "" }))
		}, http.StatusBadRequest},
		{"unknown graph", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.GraphID = "g-nope" }))
		}, http.StatusNotFound},
		{"unknown method", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.Method = "cosine" }))
		}, http.StatusBadRequest},
		{"unknown algorithm", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.Algorithm = "kmeans" }))
		}, http.StatusBadRequest},
		{"metis without k", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.Algorithm = "metis" }))
		}, http.StatusBadRequest},
		{"k beyond nodes", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) {
				r.Algorithm = "metis"
				r.K = 100
			}))
		}, http.StatusBadRequest},
		{"alpha out of range", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) {
				a := 1.5
				r.Alpha = &a
			}))
		}, http.StatusBadRequest},
		{"negative threshold", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.Threshold = -1 }))
		}, http.StatusBadRequest},
		{"inflation at or below one", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/cluster", cluster(func(r *ClusterRequest) { r.Inflation = 0.9 }))
		}, http.StatusBadRequest},
		{"unknown job", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
		{"empty graph upload", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader("# nothing\n"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"node id beyond int32", func() *http.Response {
			resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader("0 1\n5 2147483648\n"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"oversized graph upload", func() *http.Response {
			big := strings.Repeat("0 1\n", 1024)
			resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader(big))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID:   info.ID,
		Method:    "bib",
		Algorithm: "graclus",
		K:         3,
		Seed:      1,
		Async:     true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)
	if ref.JobID == "" || ref.Location == "" {
		t.Fatalf("ref = %+v", ref)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		jresp, err := http.Get(ts.URL + ref.Location)
		if err != nil {
			t.Fatal(err)
		}
		job := decode[JobInfo](t, jresp)
		switch job.State {
		case string(jobstore.Done):
			if job.Result == nil || len(job.Result.Assign) != 6 {
				t.Fatalf("job result = %+v", job.Result)
			}
			if job.Result.K != 3 {
				t.Fatalf("k = %d", job.Result.K)
			}
			return
		case string(jobstore.Failed), string(jobstore.Canceled):
			t.Fatalf("job ended %s: %s", job.State, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClientDisconnectCancelsQueuedWork(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 2})

	// Occupy the only worker so the request below waits in the queue.
	release := occupy(t, s.pool)
	defer release()

	info := s.RegisterGraph(mustFigure1Graph(t))
	body, _ := json.Marshal(ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/cluster", strings.NewReader(string(body))).WithContext(ctx)
	rec := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the queue
	cancel()                          // client disconnects
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499", rec.Code)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	info := registerFigure1(t, ts)
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID:   info.ID,
		Method:    "rw",
		Algorithm: "metis",
		K:         3,
		Seed:      1,
		Async:     true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drain waits for the pool, so the job can only be finishing its
	// bookkeeping goroutine; give it a moment to record the result.
	deadline := time.Now().Add(2 * time.Second)
	for {
		job, ok := s.jobs.Snapshot(ref.JobID)
		if !ok {
			t.Fatal("job vanished")
		}
		if job.State == jobstore.Done {
			break
		}
		if job.State == jobstore.Failed || job.State == jobstore.Canceled {
			t.Fatalf("job ended %s: %s", job.State, job.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not finished after drain: %s", job.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// After drain: health checks fail and new work is shed.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d", hresp.StatusCode)
	}
	cresp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl"})
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cluster after drain = %d", cresp.StatusCode)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := registerFigure1(t, ts)

	release := occupy(t, s.pool)
	// Fill the single queue slot.
	queued := mustReserve(t, s.pool)

	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	release()
	queued.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
