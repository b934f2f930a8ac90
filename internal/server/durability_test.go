package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"symcluster/internal/faultinject"
	"symcluster/internal/graph"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// blockEdgeList generates a reproducible directed block graph (blocks
// dense inside, sparse between) as edge-list text. MCL takes ~30
// iterations on 4×30 nodes, long enough for preemption and crash tests
// to interrupt a run mid-flight (figure1 converges after one iteration
// and is useless for that).
func blockEdgeList(blocks, size int, seed uint64) string {
	// xorshift so the fixture is reproducible without math/rand.
	x := seed
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	var b strings.Builder
	n := blocks * size
	for i := 0; i < n; i++ {
		bi := i / size
		for d := 0; d < 6; d++ {
			var j int
			if d < 4 { // intra-block
				j = bi*size + int(next()%uint64(size))
			} else { // sparse inter-block
				j = int(next() % uint64(n))
			}
			if j != i {
				fmt.Fprintf(&b, "%d %d\n", i, j)
			}
		}
	}
	return b.String()
}

// durableServer builds a Server journaling to dir. The caller owns the
// lifecycle (Drain + Close) — unlike newTestServer, no cleanup is
// registered, because restart tests need to stop and reopen the same
// data dir mid-test.
func durableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

func stopServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// postCluster issues POST /v1/cluster with an optional Idempotency-Key
// and returns the response (caller closes the body).
func postCluster(t *testing.T, url string, req ClusterRequest, idemKey string) *http.Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/cluster", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		hr.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJobRef(t *testing.T, resp *http.Response) JobRef {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ref JobRef
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// waitJobState polls until the job reaches want or the deadline hits.
func waitJobState(t *testing.T, s *Server, id string, want jobstore.State) *jobstore.JobRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.jobs.Snapshot(id); ok && j.State == want {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := s.jobs.Snapshot(id)
	t.Fatalf("job %s stuck in %q, want %q", id, j.State, want)
	return nil
}

// jobResult decodes the result a finished job snapshot holds.
func jobResult(t *testing.T, j *jobstore.JobRecord) ClusterResponse {
	t.Helper()
	var resp ClusterResponse
	if err := json.Unmarshal(j.Result, &resp); err != nil {
		t.Fatalf("job %s result %q: %v", j.ID, j.Result, err)
	}
	return resp
}

// Concurrent duplicate submissions under one Idempotency-Key must all
// resolve to the same job: the store creates exactly one record however
// the races land.
func TestIdempotencyKeyConcurrent(t *testing.T) {
	s, ts := durableServer(t, t.TempDir(), Config{Workers: 2})
	defer stopServer(t, s, ts)
	info := s.RegisterGraph(mustFigure1Graph(t))
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1, Async: true}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = decodeJobRef(t, postCluster(t, ts.URL, req, "retry-me")).JobID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("duplicate key produced two jobs: %q and %q", ids[0], ids[i])
		}
	}
	// A different key is a different job.
	other := decodeJobRef(t, postCluster(t, ts.URL, req, "someone-else")).JobID
	if other == ids[0] {
		t.Fatalf("distinct keys shared job %q", other)
	}
	waitJobState(t, s, ids[0], jobstore.Done)
	waitJobState(t, s, other, jobstore.Done)
}

// An Idempotency-Key on a synchronous request is a client error: the
// result is returned inline and there is no job to dedup against.
func TestIdempotencyKeySyncRejected(t *testing.T) {
	s, ts := durableServer(t, t.TempDir(), Config{Workers: 1})
	defer stopServer(t, s, ts)
	info := s.RegisterGraph(mustFigure1Graph(t))
	resp := postCluster(t, ts.URL, ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl"}, "sync-key")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// A duplicate submission after a restart still dedups: the key rides
// the WAL, so the replayed store recognizes it and returns the original
// (already finished) job.
func TestIdempotencyKeyAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir, Config{Workers: 1})
	info := s1.RegisterGraph(mustFigure1Graph(t))
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 3, Async: true}
	ref := decodeJobRef(t, postCluster(t, ts1.URL, req, "once-only"))
	first := waitJobState(t, s1, ref.JobID, jobstore.Done)
	stopServer(t, s1, ts1)

	s2, ts2 := durableServer(t, dir, Config{Workers: 1})
	defer stopServer(t, s2, ts2)
	ref2 := decodeJobRef(t, postCluster(t, ts2.URL, req, "once-only"))
	if ref2.JobID != ref.JobID {
		t.Fatalf("replayed duplicate created job %q, want %q", ref2.JobID, ref.JobID)
	}
	// The replayed job still carries its finished result.
	j, ok := s2.jobs.Snapshot(ref.JobID)
	if !ok || j.State != jobstore.Done || j.Result == nil {
		t.Fatalf("replayed job = %+v, want done with result", j)
	}
	if len(jobResult(t, j).Assign) != len(jobResult(t, first).Assign) {
		t.Fatalf("replayed result lost assignments")
	}
}

// TestFinishedJobTraceSurvivesRestart: a done job's tree rides its
// journaled result (trace.spans), so GET /v1/jobs/{id}/trace serves the
// same tree after a restart. A failed job's tree is held in memory only;
// after the restart its 404 says the job finished, not that it has no
// trace yet.
func TestFinishedJobTraceSurvivesRestart(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s1, ts1 := durableServer(t, dir, Config{Workers: 1})
	info := s1.RegisterGraph(mustFigure1Graph(t))
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 3, Async: true}
	done := decodeJobRef(t, postCluster(t, ts1.URL, req, ""))
	waitJobState(t, s1, done.JobID, jobstore.Done)
	faultinject.Set("mcl.iterate", faultinject.Fault{Mode: faultinject.Error})
	req.Seed = 4
	failed := decodeJobRef(t, postCluster(t, ts1.URL, req, ""))
	waitJobState(t, s1, failed.JobID, jobstore.Failed)
	faultinject.Reset()
	code, live := getURL(t, ts1.URL+done.Location+"/trace")
	if code != http.StatusOK {
		t.Fatalf("live trace: status %d: %s", code, live)
	}
	stopServer(t, s1, ts1)

	s2, ts2 := durableServer(t, dir, Config{Workers: 1})
	defer stopServer(t, s2, ts2)
	code, replayed := getURL(t, ts2.URL+done.Location+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace of a done job after a restart: status %d: %s", code, replayed)
	}
	var before, after obs.SpanNode
	if err := json.Unmarshal(live, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(replayed, &after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) || after.Name != "request" || after.Child("cluster") == nil {
		t.Fatalf("replayed trace differs from the live one:\nlive     %s\nreplayed %s", live, replayed)
	}
	code, body := getURL(t, ts2.URL+failed.Location+"/trace")
	if code != http.StatusNotFound || !strings.Contains(string(body), "finished (failed) with no trace retained") {
		t.Fatalf("trace of a failed job after a restart: status %d: %s", code, body)
	}
}

// A drain that cannot finish in time preempts the running job: its
// kernel checkpoints on the way out, the WAL marks it pending again,
// and the next boot resumes and completes it with the same answer an
// uninterrupted run gives.
func TestDrainPreemptsAndRequeues(t *testing.T) {
	dir := t.TempDir()
	faultinject.Set("mcl.iterate", faultinject.Fault{Mode: faultinject.Delay, Delay: 25 * time.Millisecond})
	defer faultinject.Reset()

	s1, ts1 := durableServer(t, dir, Config{Workers: 1, CheckpointIters: 1})
	s1.preemptGrace = 10 * time.Second
	g, err := graph.ReadEdgeList(strings.NewReader(blockEdgeList(4, 30, 7)))
	if err != nil {
		t.Fatal(err)
	}
	info := s1.RegisterGraph(g)
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 5, Async: true}
	ref := decodeJobRef(t, postCluster(t, ts1.URL, req, ""))
	waitJobState(t, s1, ref.JobID, jobstore.Running)

	// Give the kernel a couple of iterations so a checkpoint lands.
	deadline := time.Now().Add(10 * time.Second)
	for s1.jobs.CheckpointSaves() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s1.jobs.CheckpointSaves() == 0 {
		t.Fatal("no checkpoint saved while job was running")
	}

	ts1.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatalf("drain with preemption: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL must show the job pending again, checkpoint attached.
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st.Snapshot(ref.JobID)
	if !ok {
		t.Fatalf("job %s missing from reopened store", ref.JobID)
	}
	if rec.State != jobstore.Pending {
		t.Fatalf("preempted job state = %q, want pending", rec.State)
	}
	if ck, ok := rec.Checkpoints["mcl"]; !ok || ck.Iter == 0 {
		t.Fatalf("preempted job has no mcl checkpoint (have %v)", rec.Checkpoints)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart without the delay fault: the job resumes and finishes.
	faultinject.Reset()
	s2, ts2 := durableServer(t, dir, Config{Workers: 1, CheckpointIters: 1})
	defer stopServer(t, s2, ts2)
	done := waitJobState(t, s2, ref.JobID, jobstore.Done)

	// Same answer as an uninterrupted run with the same seed.
	resp := postCluster(t, ts2.URL, ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 5}, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("baseline run: status %d: %s", resp.StatusCode, body)
	}
	var base ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&base); err != nil {
		t.Fatal(err)
	}
	if got := jobResult(t, done).Assign; fmt.Sprint(got) != fmt.Sprint(base.Assign) {
		t.Fatalf("resumed assignments %v != uninterrupted %v", got, base.Assign)
	}
}

// TestDrainResumesBestWCutPageRank: a durable async job gets the job's
// checkpoint sink whatever its pipeline, so BestWCut's PageRank solve
// (walk.StationaryDistributionCtx) snapshots while it runs, is preempted
// by a drain with its iterate journaled, and resumes from it on the next
// boot rather than from iteration 0.
func TestDrainResumesBestWCutPageRank(t *testing.T) {
	dir := t.TempDir()
	faultinject.Set("walk.power", faultinject.Fault{Mode: faultinject.Delay, Delay: 25 * time.Millisecond})
	defer faultinject.Reset()

	s1, ts1 := durableServer(t, dir, Config{Workers: 1, CheckpointIters: 1})
	s1.preemptGrace = 10 * time.Second
	g, err := graph.ReadEdgeList(strings.NewReader(blockEdgeList(4, 30, 7)))
	if err != nil {
		t.Fatal(err)
	}
	info := s1.RegisterGraph(g)
	req := ClusterRequest{GraphID: info.ID, Algorithm: "bestwcut", K: 4, Seed: 5, Async: true}
	ref := decodeJobRef(t, postCluster(t, ts1.URL, req, ""))
	waitJobState(t, s1, ref.JobID, jobstore.Running)
	waitFor(t, 10*time.Second, "a PageRank checkpoint", func() bool { return s1.jobs.CheckpointSaves() >= 2 })

	ts1.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatalf("drain with preemption: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	faultinject.Reset()
	s2, ts2 := durableServer(t, dir, Config{Workers: 1, CheckpointIters: 1})
	defer stopServer(t, s2, ts2)
	waitJobState(t, s2, ref.JobID, jobstore.Done)
	code, trace := getURL(t, ts2.URL+"/v1/jobs/"+ref.JobID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: status %d: %s", code, trace)
	}
	// Only walk.power sets resume_iter in a BestWCut run.
	m := regexp.MustCompile(`"resume_iter":\s*(\d+)`).FindSubmatch(trace)
	if m == nil || string(m[1]) == "0" {
		t.Fatalf("the replayed walk.power span does not resume (match %q):\n%s", m, trace)
	}
}

// TestQueuePlacesBoundTheBacklog: waiting jobs are charged nothing but
// their place. With one job on the worker, jobs whose byte estimates sum
// far past any working-set budget fill every place of the queue, and
// only the next submission is refused: 503 + Retry-After.
func TestQueuePlacesBoundTheBacklog(t *testing.T) {
	faultinject.Set("pool.task", faultinject.Fault{Mode: faultinject.Delay, Delay: 300 * time.Millisecond})
	defer faultinject.Reset()

	const places = 3
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: places})
	info := s.RegisterGraph(mustFigure1Graph(t))
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1, Async: true}

	// Job 1 is taken by the idle worker (and stalls in the delay fault);
	// wait for that, so the next jobs land in the queue, not a worker.
	decodeJobRef(t, postCluster(t, ts.URL, req, ""))
	waitFor(t, 10*time.Second, "job 1 on the worker", func() bool {
		return s.pool.Busy() == 1 && s.pool.QueueDepth() == 0
	})
	for i := 0; i < places; i++ {
		decodeJobRef(t, postCluster(t, ts.URL, req, ""))
	}
	if got := expositionValue(scrapeMetrics(t, ts.URL), "symclusterd_queue_depth"); got != places {
		t.Fatalf("symclusterd_queue_depth = %d, want %d", got, places)
	}

	resp := postCluster(t, ts.URL, req, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("status %d, Retry-After %q; want 503, 1 (body %s)", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if jobs := len(s.jobs.Jobs()); jobs != 1+places {
		t.Fatalf("the job table holds %d jobs, want the %d admitted", jobs, 1+places)
	}
}
