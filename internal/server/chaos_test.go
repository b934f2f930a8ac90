package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"symcluster/internal/faultinject"
	"symcluster/internal/jobstore"
	"symcluster/internal/leakcheck"
)

// The tests in this file arm the faultinject registry, which is global
// process state; Go runs tests in a package sequentially unless they
// opt into t.Parallel, and none here do. Every test that arms a fault
// defers a Reset so the registry is clean before the test server's
// drain cleanup runs.

// fetchMetrics returns the /metrics exposition as a string.
func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKernelPanicRecovered injects a panic inside the MCL iteration
// loop and checks the blast radius: the request fails with 500 and a
// short message (no stack leaked to the client), the panic is counted
// in /metrics, and the daemon keeps serving — the identical request
// succeeds once the fault is disarmed.
func TestKernelPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1}

	faultinject.Set("mcl.iterate", faultinject.Fault{Mode: faultinject.Panic})
	resp := postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	apiErr := decode[ErrorResponse](t, resp)
	if !strings.Contains(apiErr.Error, "panic") {
		t.Fatalf("error %q does not mention the panic", apiErr.Error)
	}
	if strings.Contains(apiErr.Error, "goroutine ") {
		t.Fatalf("stack trace leaked to the client: %q", apiErr.Error)
	}

	faultinject.Reset()
	resp = postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after recovery = %d, want 200", resp.StatusCode)
	}
	if res := decode[ClusterResponse](t, resp); len(res.Assign) != 6 {
		t.Fatalf("assign = %v", res.Assign)
	}

	if body := fetchMetrics(t, ts); !strings.Contains(body, "symclusterd_panics_recovered_total 1") {
		t.Fatalf("metrics missing recovered panic:\n%s", body)
	}
}

// TestWorkerPanicFailsAsyncJob checks the async path: a panicking task
// marks its job failed (not stuck pending/running forever) and the
// worker survives to run the next job.
func TestWorkerPanicFailsAsyncJob(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	// Times: 1 — only the first task panics; the follow-up job must run.
	faultinject.Set("pool.task", faultinject.Fault{Mode: faultinject.Panic, Times: 1})
	req := ClusterRequest{GraphID: info.ID, Method: "bib", Algorithm: "mcl", Seed: 1, Async: true}
	resp := postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)

	waitFor(t, 5*time.Second, "job failed", func() bool {
		job, ok := s.jobs.Snapshot(ref.JobID)
		return ok && job.State == jobstore.Failed
	})
	job, _ := s.jobs.Snapshot(ref.JobID)
	if !strings.Contains(job.Err, "panic") {
		t.Fatalf("job error %q does not mention the panic", job.Err)
	}

	// The same worker goroutine serves the next job successfully.
	resp = postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after panic = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if s.pool.PanicsRecovered() != 1 {
		t.Fatalf("panics recovered = %d, want 1", s.pool.PanicsRecovered())
	}
}

// TestCancellationReleasesWorkerMidRun cancels a request while its
// kernel is iterating (every MCL iteration is slowed by an injected
// delay) and checks the whole unwind: the handler answers 499
// promptly, the kernel notices the cancelled context within about one
// iteration and frees the worker, and no goroutines are left behind
// (enforced by stack signature, not a raw count, via leakcheck).
func TestCancellationReleasesWorkerMidRun(t *testing.T) {
	leakcheck.Guard(t)
	defer faultinject.Reset()
	s := mustNew(t, Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	info := s.RegisterGraph(mustFigure1Graph(t))
	// A long stall on the first iteration guarantees the cancel lands
	// while the kernel is mid-run (hits are counted before the sleep).
	faultinject.Set("mcl.iterate", faultinject.Fault{Mode: faultinject.Delay, Delay: 200 * time.Millisecond})

	body, _ := json.Marshal(ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("POST", "/v1/cluster", strings.NewReader(string(body))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()

	// Cancel only once the kernel is demonstrably mid-iteration.
	waitFor(t, 5*time.Second, "kernel running", func() bool {
		return s.pool.Busy() == 1 && faultinject.Hits("mcl.iterate") > 0
	})
	cancel()

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499", rec.Code)
	}
	// The kernel polls ctx at each iteration boundary; one delayed
	// iteration bounds how long the worker stays occupied. The leak
	// guard's cleanup then verifies no goroutines survive the unwind.
	waitFor(t, 2*time.Second, "worker released", func() bool { return s.pool.Busy() == 0 })
}

// TestSlowKernelTimeout checks that a kernel slower than the request
// timeout surfaces as 504 and that drain still completes afterwards
// (the worker abandons the run at the next iteration, it is not stuck).
func TestSlowKernelTimeout(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	info := registerFigure1(t, ts)

	// One stalled iteration outlasts the whole request budget.
	faultinject.Set("mcl.iterate", faultinject.Fault{Mode: faultinject.Delay, Delay: 250 * time.Millisecond})
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// TestInjectedErrorFailsRequestNotDaemon checks the error fault mode
// end to end: a failing symmetrization kernel turns into a 500 whose
// body names the injected error, and the daemon stays healthy.
func TestInjectedErrorFailsRequestNotDaemon(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	faultinject.Set("core.symmetrize", faultinject.Fault{Mode: faultinject.Error})
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "rw", Algorithm: "mcl", Seed: 1})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if apiErr := decode[ErrorResponse](t, resp); !strings.Contains(apiErr.Error, "injected") {
		t.Fatalf("error %q does not name the injected fault", apiErr.Error)
	}

	faultinject.Reset()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after injected error", hresp.StatusCode)
	}
}

// TestAdmissionControlRejectsOversizedJobs checks the byte budget: a
// tiny MaxJobBytes rejects a clustering request whose symmetrizer has
// no out-of-core kernel with 413 before it reaches the pool, the
// rejection is counted, and a generous budget admits the same request.
// An out-of-core capable method under the same tiny budget is no
// longer rejected — it is admitted on the out-of-core path instead.
func TestAdmissionControlRejectsOversizedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobBytes: 64})
	info := registerFigure1(t, ts)
	req := ClusterRequest{GraphID: info.ID, Method: "rw", Algorithm: "mcl", Seed: 1}

	resp := postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	apiErr := decode[ErrorResponse](t, resp)
	if !strings.Contains(apiErr.Error, "max-job-mb") {
		t.Fatalf("error %q does not tell the operator which knob to raise", apiErr.Error)
	}
	if !strings.Contains(apiErr.Error, "cannot run out-of-core") {
		t.Fatalf("error %q does not explain why out-of-core did not save the job", apiErr.Error)
	}
	if s.pool.Busy() != 0 || s.pool.QueueDepth() != 0 {
		t.Fatal("rejected job reached the pool")
	}
	if body := fetchMetrics(t, ts); !strings.Contains(body, "symclusterd_admission_rejected_total 1") {
		t.Fatalf("metrics missing admission rejection:\n%s", body)
	}

	// The same graph with an out-of-core capable symmetrization is
	// admitted despite the tiny budget and runs to completion.
	req.Method = "bib"
	resp = postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("out-of-core capable method status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if body := fetchMetrics(t, ts); !strings.Contains(body, "symclusterd_ooc_jobs_total 1") {
		t.Fatalf("metrics missing out-of-core admission:\n%s", body)
	}

	// The rw request under a generous budget runs normally.
	_, ts2 := newTestServer(t, Config{Workers: 1, MaxJobBytes: 1 << 30})
	info2 := registerFigure1(t, ts2)
	req.GraphID = info2.ID
	req.Method = "rw"
	resp = postJSON(t, ts2.URL+"/v1/cluster", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status under generous budget = %d, want 200", resp.StatusCode)
	}
}

// TestOversizedEdgeListLineIs413 covers the plain-text upload path: a
// single line longer than the parser's buffer is a size problem, not a
// syntax problem, and must answer 413 like the body cap does.
func TestOversizedEdgeListLineIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64 << 20})
	long := "# " + strings.Repeat("x", 17*1024*1024)
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}
