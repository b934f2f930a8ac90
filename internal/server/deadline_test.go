package server

import (
	"encoding/json"
	"fmt"
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

// TestDeadlineShortButLiveRuns: a live deadline, however short, is not
// refused at admission: the job runs on an idle worker and answers 200
// inside its budget, and nothing counts into
// symclusterd_deadline_rejected_total. (A run that outlives its budget
// still dies where it is — in the queue, or mid-run.)
func TestDeadlineShortButLiveRuns(t *testing.T) {
	leakcheck.Guard(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	resp := postClusterWithBudget(t, ts, req, 200*time.Millisecond)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	if got := decode[ClusterResponse](t, resp).Assign; fmt.Sprint(got) != "[0 0 1 1 2 2]" {
		t.Fatalf("assign = %v, want Figure 1's twins together", got)
	}
	if got := expositionValue(scrapeMetrics(t, ts.URL), "symclusterd_deadline_rejected_total"); got != 0 {
		t.Fatalf("symclusterd_deadline_rejected_total = %d, want 0", got)
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
	// A's goroutine must hold the worker before B arrives: a B that got
	// there first would take the one delay itself and answer at 1s.
	waitFor(t, 5*time.Second, "job A on the worker", func() bool { return s.pool.Busy() == 1 })

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
