package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"symcluster/internal/server"
)

// figure1Edges is the paper's Figure 1 example in the edge-list
// interchange format, shared verbatim with the server tests.
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

// runCLI drives the CLI in-process with -json and decodes stdout.
func runCLI(t *testing.T, args ...string) server.ClusterResponse {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, code, stderr.String())
	}
	var resp server.ClusterResponse
	if err := json.Unmarshal(stdout.Bytes(), &resp); err != nil {
		t.Fatalf("decoding CLI output %q: %v", stdout.String(), err)
	}
	return resp
}

// postCluster runs the same job through a live symclusterd.
func postCluster(t *testing.T, ts *httptest.Server, graphID string, req server.ClusterRequest) server.ClusterResponse {
	t.Helper()
	req.GraphID = graphID
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cluster: status %d", resp.StatusCode)
	}
	var out server.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCLIServerParity is the golden parity check promised by the
// registry refactor: for the same graph, method, algorithm, and seed,
// `symcluster -json` and POST /v1/cluster return the same clustering
// and the same canonical names — whichever alias either side was
// given. Timing fields and server-only bookkeeping (graph id, cache
// flag) are excluded by construction.
func TestCLIServerParity(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
	if err != nil {
		t.Fatal(err)
	}
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cases := []struct {
		name    string
		cliArgs []string
		req     server.ClusterRequest
	}{
		{
			name:    "undirected mcl",
			cliArgs: []string{"-in", edgePath, "-method", "dd", "-algo", "mcl", "-seed", "7", "-json"},
			req:     server.ClusterRequest{Method: "dd", Algorithm: "mcl", Seed: 7},
		},
		{
			name: "aliases canonicalise identically",
			cliArgs: []string{"-in", edgePath, "-method", "degree-discounted",
				"-algo", "mlrmcl", "-seed", "7", "-json"},
			req: server.ClusterRequest{Method: "DegreeDiscounted", Algorithm: "MLR-MCL", Seed: 7},
		},
		{
			name: "undirected spectral",
			cliArgs: []string{"-in", edgePath, "-method", "aat", "-algo", "spectral",
				"-k", "3", "-seed", "7", "-json"},
			req: server.ClusterRequest{Method: "a+at", Algorithm: "ncut", K: 3, Seed: 7},
		},
		{
			name: "directed bestwcut bypass",
			cliArgs: []string{"-in", edgePath, "-algo", "bestwcut",
				"-k", "3", "-seed", "7", "-json"},
			req: server.ClusterRequest{Algorithm: "best-wcut", K: 3, Seed: 7},
		},
		{
			name: "directed zhou bypass",
			cliArgs: []string{"-in", edgePath, "-algo", "directed-laplacian",
				"-k", "2", "-seed", "7", "-json"},
			req: server.ClusterRequest{Algorithm: "zhou", K: 2, Seed: 7},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli := runCLI(t, tc.cliArgs...)
			srv := postCluster(t, ts, info.ID, tc.req)

			if cli.Method != srv.Method || cli.Algorithm != srv.Algorithm {
				t.Fatalf("names: CLI %q/%q vs server %q/%q",
					cli.Method, cli.Algorithm, srv.Method, srv.Algorithm)
			}
			if cli.Nodes != srv.Nodes || cli.UndirectedEdges != srv.UndirectedEdges {
				t.Fatalf("graph shape: CLI %d/%d vs server %d/%d",
					cli.Nodes, cli.UndirectedEdges, srv.Nodes, srv.UndirectedEdges)
			}
			if cli.K != srv.K || !reflect.DeepEqual(cli.Assign, srv.Assign) {
				t.Fatalf("clustering: CLI k=%d %v vs server k=%d %v",
					cli.K, cli.Assign, srv.K, srv.Assign)
			}
			if cli.Trace == nil || srv.Trace == nil {
				t.Fatalf("trace missing: CLI %+v server %+v", cli.Trace, srv.Trace)
			}
			if cli.Trace.Symmetrizer != srv.Trace.Symmetrizer ||
				cli.Trace.Clusterer != srv.Trace.Clusterer ||
				cli.Trace.SymmetrizedNNZ != srv.Trace.SymmetrizedNNZ {
				t.Fatalf("trace: CLI %+v vs server %+v", cli.Trace, srv.Trace)
			}
		})
	}
}

// TestCLIObservabilityOutputs drives one run with every observability
// flag: -json must embed the span tree, -trace-log must append it as a
// parseable JSON line, and the pprof flags must write non-empty
// profiles.
func TestCLIObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")

	resp := runCLI(t, "-in", edgePath, "-method", "dd", "-algo", "mcl", "-seed", "7",
		"-json", "-trace-log", tracePath, "-cpuprofile", cpuPath, "-memprofile", memPath)

	if resp.Trace == nil || resp.Trace.Spans == nil {
		t.Fatal("-json output carries no span tree")
	}
	root := resp.Trace.Spans
	if root.Name != "run" || root.TraceID == "" {
		t.Fatalf("root span = %q trace_id = %q, want named run with an id", root.Name, root.TraceID)
	}
	var stages []string
	for _, c := range root.Children {
		stages = append(stages, c.Name)
	}
	if !reflect.DeepEqual(stages, []string{"symmetrize", "cluster"}) {
		t.Fatalf("root children = %v, want [symmetrize cluster]", stages)
	}

	// -trace-log appended exactly one JSON line holding the same tree.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("trace log holds %d lines, want 1", len(lines))
	}
	var logged struct {
		Name    string `json:"name"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &logged); err != nil {
		t.Fatalf("trace log line does not parse: %v", err)
	}
	if logged.Name != "run" || logged.TraceID != root.TraceID {
		t.Fatalf("logged trace = %+v, want the run tree %q", logged, root.TraceID)
	}

	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// newSheddingFrontend fronts a real single-node daemon with a wrapper
// that sheds (429 + Retry-After) the first reject requests, then
// passes everything through. Returns the frontend URL and a counter of
// total hits.
func newSheddingFrontend(t *testing.T, reject int32, status int) (string, *atomic.Int32) {
	t.Helper()
	s, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= reject {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(status)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, &hits
}

// TestCLIServerModeRetriesShedding drives -server against a daemon
// that sheds the first requests with 429 + Retry-After: the CLI must
// back off, retry, and still deliver the same clustering a direct
// local run produces.
func TestCLIServerModeRetriesShedding(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}
	url, hits := newSheddingFrontend(t, 2, http.StatusTooManyRequests)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-in", edgePath, "-method", "dd", "-algo", "mcl", "-seed", "7",
		"-server", url, "-retries", "4", "-retry-max-wait", "50ms", "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	var remote server.ClusterResponse
	if err := json.Unmarshal(stdout.Bytes(), &remote); err != nil {
		t.Fatalf("decoding -json output %q: %v", stdout.String(), err)
	}
	local := runCLI(t, "-in", edgePath, "-method", "dd", "-algo", "mcl", "-seed", "7", "-json")
	if remote.K != local.K || !reflect.DeepEqual(remote.Assign, local.Assign) {
		t.Fatalf("server run k=%d %v != local run k=%d %v",
			remote.K, remote.Assign, local.K, local.Assign)
	}
	// The shed attempts were really retried, and the user was told.
	if n := hits.Load(); n < 4 {
		t.Fatalf("daemon saw only %d requests; shedding was not retried", n)
	}
	if !strings.Contains(stderr.String(), "retrying") {
		t.Fatalf("stderr %q does not report the retries", stderr.String())
	}
}

// A daemon that never stops shedding exhausts the retry budget and the
// CLI surfaces the daemon's final status instead of spinning forever.
func TestCLIServerModeExhaustsRetries(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}
	url, hits := newSheddingFrontend(t, 1<<30, http.StatusServiceUnavailable)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-in", edgePath, "-method", "dd", "-algo", "mcl",
		"-server", url, "-retries", "3", "-retry-max-wait", "20ms", "-json"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "503") {
		t.Fatalf("stderr %q does not carry the final status", stderr.String())
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("daemon saw %d requests, want exactly -retries=3", n)
	}
}

// Local-only flags are usage errors in server mode: the daemon cannot
// honor them, so the CLI refuses rather than silently ignoring.
func TestCLIServerModeRejectsLocalFlags(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-stats"},
		{"-metisout", filepath.Join(dir, "parts")},
		{"-out-of-core"},
		{"-trace-log", filepath.Join(dir, "trace.jsonl")},
	} {
		args := append([]string{"-in", edgePath, "-server", "http://127.0.0.1:1"}, extra...)
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2\nstderr: %s", extra, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), strings.TrimPrefix(extra[0], "-")) {
			t.Fatalf("%v: stderr %q does not name the offending flag", extra, stderr.String())
		}
	}
}

// TestCLIUnknownNamesExitTwo checks the usage-error exit code and the
// dynamic valid-name listing for both stages.
func TestCLIUnknownNamesExitTwo(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}
	for flagName, value := range map[string]string{"-method": "cosine", "-algo": "louvain"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-in", edgePath, flagName, value}, &stdout, &stderr)
		if code != 2 {
			t.Fatalf("%s %s: exit %d, want 2", flagName, value, code)
		}
		if !strings.Contains(stderr.String(), "valid:") {
			t.Fatalf("%s %s: stderr %q does not list valid names", flagName, value, stderr.String())
		}
	}
}

// TestCLITimeoutReachesOffPathSymmetrization holds -timeout over the
// symmetrization the CLI runs outside the two-stage pipeline: the
// -stats side output of a substrate that never builds the symmetrized
// graph. An expired deadline must fail the run, not be ignored.
func TestCLITimeoutReachesOffPathSymmetrization(t *testing.T) {
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "figure1.edges")
	if err := os.WriteFile(edgePath, []byte(figure1Edges), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-algo", "bestwcut", "-k", "3", "-stats"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-in", edgePath, "-timeout", "1ns"}, extra...)
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("%v: exit %d, want 1\nstderr: %s", extra, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), context.DeadlineExceeded.Error()) {
			t.Fatalf("%v: stderr %q does not report the deadline", extra, stderr.String())
		}
	}
}
