package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"symcluster/internal/csr"
	"symcluster/internal/jobstore"
)

// oocEdgeList generates a deterministic directed edge list: nodes
// pointing at an LCG-chosen fan-out plus a hub, dense enough that the
// product symmetrizations do real SpGEMM work.
func oocEdgeList(nodes, perNode int) string {
	var b strings.Builder
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, "%d 0 1.5\n", i) // hub edge, duplicated weight path
		for k := 0; k < perNode; k++ {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state>>33) % nodes
			if j != i {
				fmt.Fprintf(&b, "%d %d %d\n", i, j, 1+int(state>>60))
			}
		}
	}
	return b.String()
}

// uploadChunked drives the chunked-upload API: create a session, POST
// the text in chunks of the given size (splitting lines arbitrarily),
// finalize, and return the result.
func uploadChunked(t *testing.T, ts *httptest.Server, text string, chunk int) UploadResult {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/graphs/uploads", struct{}{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload create: status %d", resp.StatusCode)
	}
	ref := decode[UploadRef](t, resp)
	for off := 0; off < len(text); off += chunk {
		end := off + chunk
		if end > len(text) {
			end = len(text)
		}
		resp, err := http.Post(ts.URL+ref.Location, "text/plain", strings.NewReader(text[off:end]))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chunk append at %d: status %d", off, resp.StatusCode)
		}
		st := decode[UploadStatus](t, resp)
		if st.BytesReceived != int64(end) {
			t.Fatalf("bytes received = %d, want %d", st.BytesReceived, end)
		}
	}
	resp, err := http.Post(ts.URL+ref.Location+"/finalize", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("finalize: status %d", resp.StatusCode)
	}
	return decode[UploadResult](t, resp)
}

// clusterSync runs one synchronous clustering request and returns the
// response.
func clusterSync(t *testing.T, ts *httptest.Server, req ClusterRequest) *ClusterResponse {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusOK {
		r := decode[ErrorResponse](t, resp)
		t.Fatalf("cluster: status %d: %s", resp.StatusCode, r.Error)
	}
	out := decode[ClusterResponse](t, resp)
	return &out
}

// TestChunkedUploadOutOfCoreIdenticalAssignments is the end-to-end
// out-of-core contract: a graph whose working-set estimate exceeds the
// job budget is uploaded in chunks (spilling during ingest), registered
// as a memory-mapped binary CSR file without ever living on the heap,
// admitted out-of-core instead of rejected with 413, and clusters to
// assignments identical to the same request running fully in core.
func TestChunkedUploadOutOfCoreIdenticalAssignments(t *testing.T) {
	text := oocEdgeList(600, 12)
	req := ClusterRequest{Method: "dd", Algorithm: "mcl", Threshold: 0.001, Seed: 7}

	// Reference: plain registration, generous budget, in-core run.
	_, tsRef := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(tsRef.URL+"/v1/graphs", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	refInfo := decode[GraphInfo](t, resp)
	req.GraphID = refInfo.ID
	want := clusterSync(t, tsRef, req)

	// Out-of-core: durable server with a job budget far below the
	// estimate and a tiny ingest buffer so the upload itself spills.
	dir := t.TempDir()
	s, ts := durableServer(t, dir, Config{
		Workers:        1,
		MaxJobBytes:    1 << 10,
		IngestMemBytes: 1, // floor: spill every 4096 edges
		SpillDir:       t.TempDir(),
	})
	defer stopServer(t, s, ts)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	up := uploadChunked(t, ts, text, 10_000)
	if up.Graph.ID != refInfo.ID {
		t.Fatalf("uploaded graph id %s != reference %s (content-derived ids must agree)", up.Graph.ID, refInfo.ID)
	}
	if up.SpillRuns == 0 {
		t.Fatal("upload ingest never spilled under a 1-byte buffer budget")
	}
	if up.Graph.Nodes != refInfo.Nodes || up.Graph.Edges != refInfo.Edges {
		t.Fatalf("uploaded graph %+v != reference %+v", up.Graph, refInfo)
	}

	// The adjacency must be a mapped view of the durable .csr file, not
	// a heap matrix: coarse resident-memory check plus the structural
	// one. (Parse garbage is collected; what stays live must be far
	// smaller than the matrix.)
	rg, ok := s.lookupGraph(up.Graph.ID)
	if !ok {
		t.Fatal("uploaded graph not registered")
	}
	if rg.mapped == nil {
		t.Fatal("uploaded graph is not memory-mapped")
	}
	if rg.csrPath == "" {
		t.Fatal("uploaded graph has no csr path for out-of-core runs")
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", up.Graph.ID+".csr")); err != nil {
		t.Fatalf("durable .csr file missing: %v", err)
	}
	matrixBytes := int64(12)*int64(rg.graph.Adj.NNZ()) + 8*int64(rg.graph.N()+1)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > matrixBytes {
		t.Fatalf("upload left %d bytes live on the heap; the %d-byte matrix should be file-backed", growth, matrixBytes)
	}

	req.GraphID = up.Graph.ID
	got := clusterSync(t, ts, req)
	if len(got.Assign) != len(want.Assign) {
		t.Fatalf("assignment length %d != in-core %d", len(got.Assign), len(want.Assign))
	}
	for i := range got.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("node %d: out-of-core cluster %d != in-core %d", i, got.Assign[i], want.Assign[i])
		}
	}
	if got.K != want.K {
		t.Fatalf("out-of-core k=%d != in-core k=%d", got.K, want.K)
	}

	body := fetchMetrics(t, ts)
	if !strings.Contains(body, "symclusterd_ooc_jobs_total 1") {
		t.Fatalf("metrics missing out-of-core job count:\n%s", body)
	}
	fileBytes := csr.FileBytes(rg.graph.N(), int64(rg.graph.Adj.NNZ()))
	var mapped int64
	for _, line := range strings.Split(body, "\n") {
		if n, _ := fmt.Sscanf(line, "symclusterd_csr_mapped_bytes %d", &mapped); n == 1 {
			break
		}
	}
	if mapped < fileBytes {
		t.Fatalf("mapped-bytes gauge %d below the graph's file size %d", mapped, fileBytes)
	}
}

// TestUploadedGraphSurvivesRestart reboots a durable server over a data
// dir holding a binary .csr graph and checks it comes back mapped and
// clusterable.
func TestUploadedGraphSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	text := oocEdgeList(120, 6)
	s, ts := durableServer(t, dir, Config{Workers: 1})
	up := uploadChunked(t, ts, text, 4096)
	stopServer(t, s, ts)

	s2, ts2 := durableServer(t, dir, Config{Workers: 1})
	defer stopServer(t, s2, ts2)
	rg, ok := s2.lookupGraph(up.Graph.ID)
	if !ok {
		t.Fatal("graph lost across restart")
	}
	if rg.mapped == nil {
		t.Fatal("reloaded graph is not memory-mapped")
	}
	out := clusterSync(t, ts2, ClusterRequest{GraphID: up.Graph.ID, Method: "aat", Algorithm: "mcl", Seed: 3})
	if len(out.Assign) != rg.graph.N() {
		t.Fatalf("assignments %d != nodes %d", len(out.Assign), rg.graph.N())
	}
}

// TestStrayEdgeListIgnored boots a server over a data dir whose
// graphs/ holds a file that is not a binary CSR — the edge-list text
// only pre-PR-6 stores wrote: it is neither loaded nor touched.
func TestStrayEdgeListIgnored(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "graphs", "g-00000000deadbeef.edges")
	if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, []byte(oocEdgeList(80, 5)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := durableServer(t, dir, Config{Workers: 1})
	defer stopServer(t, s, ts)
	if _, ok := s.lookupGraph("g-00000000deadbeef"); ok {
		t.Fatal("stray edge-list file was registered as a graph")
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file disturbed at load: %v", err)
	}
}

// TestSpillBudgetRejects413 checks the one size rejection left for
// out-of-core capable methods: a projected spill footprint over the
// disk budget.
func TestSpillBudgetRejects413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobBytes: 64, MaxSpillBytes: 1})
	info := registerFigure1(t, ts)
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	apiErr := decode[ErrorResponse](t, resp)
	if !strings.Contains(apiErr.Error, "max-spill-mb") {
		t.Fatalf("error %q does not name the disk-budget knob", apiErr.Error)
	}
}

// TestUploadSessionLifecycle covers the failure surface: malformed
// chunks poison the session, poisoned sessions refuse further input,
// aborts are idempotent, and unknown sessions 404.
func TestUploadSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp := postJSON(t, ts.URL+"/v1/graphs/uploads", struct{}{})
	ref := decode[UploadRef](t, resp)

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := post(ref.Location, "0 1\nnot an edge\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed chunk: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// So does a node id no int32 row index can hold, in a session of its own.
	other := decode[UploadRef](t, postJSON(t, ts.URL+"/v1/graphs/uploads", struct{}{}))
	if resp := post(other.Location, "0 1\n5 2147483648\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chunk with id 2³¹: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// The session is poisoned: appends and finalize both refuse.
	if resp := post(ref.Location, "2 3\n"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("append to poisoned session: status %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post(ref.Location+"/finalize", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("finalize of poisoned session: status %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+ref.Location, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // abort is idempotent
		resp, err := http.DefaultClient.Do(del)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("abort #%d: status %d, want 204", i+1, resp.StatusCode)
		}
	}
	if resp := post(ref.Location, "0 1\n"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append after abort: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post("/v1/graphs/uploads/u-does-not-exist/finalize", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("finalize of unknown session: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Empty uploads cannot finalize.
	resp = postJSON(t, ts.URL+"/v1/graphs/uploads", struct{}{})
	ref = decode[UploadRef](t, resp)
	if resp := post(ref.Location+"/finalize", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("finalize of empty session: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestOutOfCoreAsyncJob runs the out-of-core path through the async
// job machinery so the admitted-over-budget contract holds there too.
func TestOutOfCoreAsyncJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobBytes: 1 << 10, SpillDir: t.TempDir()})
	info := registerFigure1(t, ts)
	resp := postJSON(t, ts.URL+"/v1/cluster",
		ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Seed: 1, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, want 202", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := s.jobs.Snapshot(ref.JobID)
		if ok && (j.State == jobstore.Done || j.State == jobstore.Failed) {
			if j.State != jobstore.Done {
				t.Fatalf("job failed: %s", j.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if body := fetchMetrics(t, ts); !strings.Contains(body, "symclusterd_ooc_jobs_total 1") {
		t.Fatalf("metrics missing out-of-core job count:\n%s", body)
	}
}

// TestUploadIDSpaceHeldToJobBudget: the rows an upload may leave unnamed
// are bounded by the job byte budget in row pointers as well as by
// graph.CheckIDDensity's constant. 2.2 M ordinary records and then one id
// of 2³¹−2 pass the constant and would size a 16 GiB row-pointer array;
// with the default 4 GiB job budget both registration paths answer 413
// before any row array exists. The budget only ever tightens: one record
// naming id 10⁸ is inside it and is still the constant's 400, and an
// honest sparse id space registers until a budget too small for its rows
// refuses it.
func TestUploadIDSpaceHeldToJobBudget(t *testing.T) {
	spill := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobBytes: 4 << 30, SpillDir: spill})
	// Both registration paths; the chunked one is judged by the budget at
	// finalize — a later chunk may yet pay for an early id — while the
	// density constant fails a chunk fast.
	register := func(ts *httptest.Server, chunked bool, text string) (int, string) {
		t.Helper()
		post := func(path, body string) *http.Response {
			t.Helper()
			resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		if !chunked {
			resp := post("/v1/graphs", text)
			return resp.StatusCode, decode[ErrorResponse](t, resp).Error
		}
		ref := decode[UploadRef](t, post("/v1/graphs/uploads", ""))
		resp := post(ref.Location, text)
		if resp.StatusCode == http.StatusAccepted {
			resp.Body.Close()
			resp = post(ref.Location+"/finalize", "")
		}
		return resp.StatusCode, decode[ErrorResponse](t, resp).Error
	}

	crafted := strings.Repeat("1 2\n", 2_200_000) + "5 2147483646\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, chunked := range []bool{false, true} {
		if code, msg := register(ts, chunked, crafted); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "node id 2147483646 asks for 2147483647 rows") {
			t.Fatalf("crafted upload (chunked=%v): status %d %q, want 413 naming the id", chunked, code, msg)
		}
		// 800 MB of row pointers, well inside the budget: the constant's.
		if code, msg := register(ts, chunked, "0 100000000\n"); code != http.StatusBadRequest || !strings.Contains(msg, "renumber ids densely") {
			t.Fatalf("one record naming id 1e8 (chunked=%v): status %d %q, want the density constant's 400", chunked, code, msg)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<30 {
		t.Fatalf("refusing the uploads allocated %d bytes: a row array was sized by the id", grew)
	}
	if left, _ := filepath.Glob(filepath.Join(spill, "*", "graph.csr*")); len(left) != 0 {
		t.Fatalf("a refused finalize left %v", left)
	}

	// 3001 rows for 3 records: the constant allows 4024, and so does every
	// budget of at least 2995 spare rows — 8000 bytes is 1000.
	sparse := "0 1\n1 2\n2 3000\n"
	_, unbudgeted := newTestServer(t, Config{Workers: 1, SpillDir: spill})
	_, tiny := newTestServer(t, Config{Workers: 1, MaxJobBytes: 8000, SpillDir: spill})
	for _, chunked := range []bool{false, true} {
		for _, srv := range []*httptest.Server{ts, unbudgeted} {
			if code, msg := register(srv, chunked, sparse); code != http.StatusCreated {
				t.Fatalf("sparse ids inside the budget (chunked=%v): status %d %q, want 201", chunked, code, msg)
			}
		}
		if code, msg := register(tiny, chunked, sparse); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "allow 1006") {
			t.Fatalf("sparse ids over an 8000-byte budget (chunked=%v): status %d %q, want 413", chunked, code, msg)
		}
	}
}
