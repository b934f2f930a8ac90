package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/faultinject"
	"symcluster/internal/jobstore"
	"symcluster/internal/leakcheck"
)

// postClusterWithBudget sends POST /v1/cluster with the caller's
// remaining budget stamped on the request, exactly as the CLI's
// -timeout and the cluster client do.
func postClusterWithBudget(t *testing.T, ts *httptest.Server, req ClusterRequest, budget time.Duration) *http.Response {
	t.Helper()
	body := mustMarshal(t, req)
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cluster", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	cluster.SetDeadlineHeader(hr.Header, budget)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// expositionValue extracts one un-labelled metric's value from an
// exposition body, or -1 when absent.
func expositionValue(body, name string) int64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64); err == nil {
				return v
			}
		}
	}
	return -1
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeadlineExpiredAtSubmitFastFails: a request arriving with its
// budget already spent is answered 504 at the submit gate — no worker,
// no queue slot, no kernel — and counted in
// symclusterd_deadline_rejected_total.
func TestDeadlineExpiredAtSubmitFastFails(t *testing.T) {
	leakcheck.Guard(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	resp := postClusterWithBudget(t, ts, req, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := expositionValue(scrapeMetrics(t, ts.URL), "symclusterd_deadline_rejected_total"); got != 1 {
		t.Fatalf("symclusterd_deadline_rejected_total = %d, want 1", got)
	}
}

// TestDeadlineTooTightRejected: a live deadline that cannot possibly
// fit the job's estimated runtime is rejected up front with 504 rather
// than queued to die later. DeadlineThroughput is floored to 1 byte/s
// so even Figure 1 "needs" hundreds of seconds against a 200ms budget.
func TestDeadlineTooTightRejected(t *testing.T) {
	leakcheck.Guard(t)
	_, ts := newTestServer(t, Config{Workers: 1, DeadlineThroughput: 1})
	info := registerFigure1(t, ts)

	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	resp := postClusterWithBudget(t, ts, req, 200*time.Millisecond)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "deadline too tight") {
		t.Fatalf("error body %q does not explain the rejection", body)
	}
	if got := expositionValue(scrapeMetrics(t, ts.URL), "symclusterd_deadline_rejected_total"); got != 1 {
		t.Fatalf("symclusterd_deadline_rejected_total = %d, want 1", got)
	}

	// Control: at the default (optimistic) throughput the same budget
	// arithmetic fits easily, so a generously-budgeted request runs.
	_, ts2 := newTestServer(t, Config{Workers: 1})
	info2 := registerFigure1(t, ts2)
	req.GraphID = info2.ID
	ok := postClusterWithBudget(t, ts2, req, 30*time.Second)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("status at default throughput = %d, want 200", ok.StatusCode)
	}
}

// TestDeadlineQueuedJobDroppedWithoutKernel is the acceptance
// scenario: a queued job whose deadline expires while it waits is
// answered 504, counted in symclusterd_deadline_rejected_total, and its
// kernel never starts — the worker drops the task at dequeue, so the
// run leaves no symmetrize/cluster stage sample (the proxy for "no
// kernel span in its trace": spans and stage samples are recorded by
// the same executed stages). The worker is released and serves the
// next request (the S3 guard: expired jobs must not pin workers).
func TestDeadlineQueuedJobDroppedWithoutKernel(t *testing.T) {
	leakcheck.Guard(t)
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	// Occupy the single worker: the first task sleeps 1s before running
	// (Times: 1 — only job A hits the delay).
	faultinject.Set("pool.task", faultinject.Fault{Mode: faultinject.Delay, Delay: time.Second, Times: 1})
	jobA := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true}
	resp := postJSON(t, ts.URL+"/v1/cluster", jobA)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job A status = %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)

	// Job B queues behind A with a 300ms budget and dies waiting. Its
	// symmetrizer ("bib") is deliberately different from A's, so a bib
	// stage sample in /metrics would prove the kernel ran after all.
	jobB := ClusterRequest{GraphID: info.ID, Method: "bib", Algorithm: "mcl", Inflation: 2, Seed: 1}
	start := time.Now()
	respB := postClusterWithBudget(t, ts, jobB, 300*time.Millisecond)
	elapsed := time.Since(start)
	defer respB.Body.Close()
	if respB.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("job B status = %d, want 504", respB.StatusCode)
	}
	// The 504 arrives at B's deadline, not after A finishes.
	if elapsed > 900*time.Millisecond {
		t.Fatalf("504 took %v; the handler waited for the worker instead of the deadline", elapsed)
	}

	// A completes; B's drop is observed at dequeue, right after.
	waitFor(t, 10*time.Second, "job A done", func() bool {
		job, ok := s.jobs.Snapshot(ref.JobID)
		return ok && job.State == jobstore.Done
	})
	waitFor(t, 5*time.Second, "deadline rejection counted", func() bool {
		return expositionValue(scrapeMetrics(t, ts.URL), "symclusterd_deadline_rejected_total") == 1
	})

	body := scrapeMetrics(t, ts.URL)
	if strings.Contains(body, `name="bib"`) {
		t.Fatal("dropped job B left a bib stage sample: its kernel ran")
	}
	if !strings.Contains(body, `name="dd"`) {
		t.Fatal("job A left no dd stage sample; the no-kernel check is vacuous")
	}

	// The worker is free again: a fresh request with a generous budget
	// runs immediately.
	respC := postClusterWithBudget(t, ts, ClusterRequest{GraphID: info.ID, Method: "bib", Algorithm: "mcl", Inflation: 2, Seed: 2}, 30*time.Second)
	defer respC.Body.Close()
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("post-drop request status = %d, want 200", respC.StatusCode)
	}
}

// TestShedReleasesQueueAccounting: a request shed by the queued-byte
// watermark leaves no goroutines and no queued-byte residue behind.
func TestShedReleasesQueueAccounting(t *testing.T) {
	leakcheck.Guard(t)
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Workers: 1, MaxQueueBytes: 1})
	info := registerFigure1(t, ts)

	// Occupy the single worker with job 1, then queue job 2: the queued
	// job's working-set estimate holds the watermark, so job 3 sheds.
	// (Estimates are released at dequeue, so only a job still waiting
	// in the queue counts against the budget.)
	faultinject.Set("pool.task", faultinject.Fault{Mode: faultinject.Delay, Delay: 500 * time.Millisecond, Times: 1})
	var refs []JobRef
	for seed := int64(1); seed <= 2; seed++ {
		resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: seed, Async: true})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler %d status = %d", seed, resp.StatusCode)
		}
		refs = append(refs, decode[JobRef](t, resp))
	}

	shed := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "bib", Algorithm: "mcl", Inflation: 2, Seed: 1})
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	waitFor(t, 10*time.Second, "fillers done", func() bool {
		for _, ref := range refs {
			if job, ok := s.jobs.Snapshot(ref.JobID); !ok || job.State != jobstore.Done {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "queued bytes released", func() bool {
		return s.queuedBytes.Load() == 0
	})
}
