package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// TestObservabilityEndToEnd exercises the full observability surface
// the way an operator would wire it: a file-backed trace sink (the
// daemon's -trace-log), the job trace endpoint, kernel histograms on
// /metrics, and a CPU profile from the pprof debug mux.
func TestObservabilityEndToEnd(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "traces.jsonl")
	f, err := os.OpenFile(traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := obs.NewTraceSink(f, 8)

	s := mustNew(t, Config{Workers: 2, TraceSink: sink})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	info := registerFigure1(t, ts)

	// One sync run and one async run: both must reach the sink.
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID: info.ID, Method: "rw", Algorithm: "mcl", Inflation: 2, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID: info.ID, Method: "dd", Algorithm: "graclus", K: 3, Seed: 1,
		Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async: status %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)
	waitJobDone(t, ts, ref)

	// The async job's trace is served over HTTP and roots at "request".
	tresp, err := http.Get(ts.URL + ref.Location + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("job trace: status %d", tresp.StatusCode)
	}
	jobRoot := decode[*obs.SpanNode](t, tresp)
	if jobRoot.Name != "request" || findSpan(jobRoot, "cluster") == nil {
		t.Fatalf("job trace root = %q, children missing cluster stage", jobRoot.Name)
	}

	// The JSONL file holds one parseable span tree per run.
	raw, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	lines := 0
	sc := bufio.NewScanner(raw)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var node obs.SpanNode
		if err := json.Unmarshal(sc.Bytes(), &node); err != nil {
			t.Fatalf("trace line %d does not parse: %v", lines+1, err)
		}
		if node.Name != "request" || node.TraceID == "" {
			t.Fatalf("trace line %d: root %q trace_id %q", lines+1, node.Name, node.TraceID)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 2 {
		t.Fatalf("trace log holds %d lines, want 2", lines)
	}

	// Kernel spans reached /metrics: the MCL run recorded its solves
	// and the rw symmetrization recorded a walk solve.
	metrics := scrapeMetrics(t, ts.URL)
	for _, fam := range []string{
		"symcluster_mcl_iterations_count",
		"symcluster_walk_power_iterations_count",
		"symcluster_symmetrize_nnz_out_count",
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing %s after instrumented runs", fam)
		}
	}
}

// TestDebugMuxServesProfiles hits the pprof mux the daemon mounts on
// -debug-addr: a short CPU profile and the heap profile must both
// come back non-empty.
func TestDebugMuxServesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 1s CPU profile in -short mode")
	}
	dbg := httptest.NewServer(obs.DebugMux())
	defer dbg.Close()

	resp, err := http.Get(dbg.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("cpu profile: status %d, %d bytes", resp.StatusCode, len(body))
	}

	resp, err = http.Get(dbg.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("heap profile: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

func waitJobDone(t *testing.T, ts *httptest.Server, ref JobRef) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		jresp, err := http.Get(ts.URL + ref.Location)
		if err != nil {
			t.Fatal(err)
		}
		job := decode[JobInfo](t, jresp)
		switch job.State {
		case string(jobstore.Done):
			return
		case string(jobstore.Failed), string(jobstore.Canceled):
			t.Fatalf("job ended %s: %s", job.State, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
}
