package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// A run's span tree is its only record: the daemon's families and a
// job's accounting are read off each exported tree, whatever started
// the run.

// exposedCount is the number of observations GET /metrics reports for
// a family: a histogram's _count, or a counter's value, summed over its
// series; -1 when the family is not exposed.
func exposedCount(t *testing.T, ts *httptest.Server, family string) float64 {
	t.Helper()
	text := fetchMetrics(t, ts)
	if !strings.Contains(text, "# TYPE "+family+" ") {
		return -1
	}
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if name == family+"_count" || name == family {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
}

// traceLog is a sink writing to a JSONL file, as -trace-log does, and
// a reader of the trees logged so far.
func traceLog(t *testing.T) (*obs.TraceSink, func() []*obs.SpanNode) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return obs.NewTraceSink(f, 64), func() []*obs.SpanNode {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var trees []*obs.SpanNode
		dec := json.NewDecoder(bytes.NewReader(raw))
		for dec.More() {
			var n obs.SpanNode
			if err := dec.Decode(&n); err != nil {
				t.Fatal(err)
			}
			trees = append(trees, &n)
		}
		return trees
	}
}

// spansNamed counts the spans of a tree with the given name.
func spansNamed(n *obs.SpanNode, name string) (count float64) {
	if n == nil {
		return 0
	}
	if n.Name == name {
		count++
	}
	for _, c := range n.Children {
		count += spansNamed(c, name)
	}
	return count
}

// TestRunFeedsTheFamiliesOfItsTree: a synchronous dd+MLR-MCL run and an
// rw+spectral run each expose on GET /metrics every kept kernel family
// their kernels feed, each up by one observation per span of the tree
// the response embeds.
func TestRunFeedsTheFamiliesOfItsTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	large := registerEdges(t, ts.URL, []byte(blockEdgeList(56, 90, 11))) // > 5000 nodes: MCL runs multilevel
	small := registerFigure1(t, ts)
	symmetrize := map[string]string{
		"symcluster_symmetrize_nnz_in":         "core.symmetrize",
		"symcluster_symmetrize_nnz_out":        "core.symmetrize",
		"symcluster_symmetrize_pruned_entries": "core.symmetrize",
		"symclusterd_stage_seconds":            "",
	}
	for _, run := range []struct {
		req      ClusterRequest
		families map[string]string // family → the span feeding it
	}{
		{ClusterRequest{GraphID: large.ID, Method: "dd", Algorithm: "mcl", Seed: 1}, map[string]string{
			"symcluster_mcl_iterations":         "mcl.iterate",
			"symcluster_coarsen_levels":         "multilevel.coarsen",
			"symcluster_coarsen_coarsest_nodes": "multilevel.coarsen",
		}},
		{ClusterRequest{GraphID: small.ID, Method: "rw", Algorithm: "spectral", K: 2, Seed: 1}, map[string]string{
			"symcluster_walk_power_iterations": "walk.power",
			"symcluster_lanczos_basis_size":    "spectral.lanczos",
		}},
	} {
		for fam, span := range symmetrize {
			run.families[fam] = span
		}
		before := map[string]float64{}
		for fam := range run.families {
			before[fam] = max(exposedCount(t, ts, fam), 0)
		}
		tree := clusterSync(t, ts, run.req).Trace.Spans
		for fam, span := range run.families {
			want := 2.0 // the two stages
			if span != "" {
				want = spansNamed(tree, span)
			}
			if got := exposedCount(t, ts, fam) - before[fam]; want < 1 || got != want {
				t.Errorf("%s+%s: %s up by %v, want one per %q span of the tree (%v)",
					run.req.Method, run.req.Algorithm, fam, got, span, want)
			}
		}
	}
}

// TestReplayedJobFeedsTheFamilies: a job replayed from the journal at
// boot runs under no request, and its tree still feeds the kernel
// families and its accounting.
func TestReplayedJobFeedsTheFamilies(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir).Close()
	s, ts := durableServer(t, dir, Config{Workers: 1})
	defer stopServer(t, s, ts)
	job := waitJobState(t, s, "job-000001", jobstore.Done)
	if n := exposedCount(t, ts, "symcluster_mcl_iterations"); n < 1 {
		t.Fatalf("symcluster_mcl_iterations_count = %v after a replayed MCL job, want >= 1", n)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[*obs.JobStatsSnapshot](t, resp)
	if stats.QueueWaitMillis <= 0 || stats.Stages["cluster"].CPUMillis <= 0 || stats.Stages["symmetrize"].WallMillis <= 0 ||
		stats.CacheMisses != 1 {
		t.Fatalf("replayed job's stats = %+v, want its queue wait, both stages and one cache miss", stats)
	}
}

// TestUploadFinalizeExportsItsTree: a finalize runs under a traced root
// whose tree holds the merge, the file write and the mapping, and feeds
// their families.
func TestUploadFinalizeExportsItsTree(t *testing.T) {
	sink, logged := traceLog(t)
	s, ts := newTestServer(t, Config{Workers: 1, TraceSink: sink})
	s.ingestMemBytes = 1
	families := map[string]float64{}
	for _, fam := range []string{"symcluster_csr_spill_runs", "symcluster_csr_merged_bytes",
		"symcluster_csr_write_bytes", "symcluster_csr_mapped_bytes"} {
		families[fam] = max(exposedCount(t, ts, fam), 0)
	}
	up := uploadChunked(t, ts, oocEdgeList(600, 12), 10_000)
	var tree *obs.SpanNode
	for _, n := range logged() {
		if n.Name == "upload.finalize" {
			tree = n
		}
	}
	if tree == nil || tree.Attrs["graph_id"] != up.Graph.ID {
		t.Fatalf("no upload.finalize tree for %s exported: %+v", up.Graph.ID, tree)
	}
	if kept := s.traces.ByTraceID(tree.TraceID); len(kept) != 1 || kept[0].Name != "upload.finalize" {
		t.Fatalf("the trace ring keeps %+v for the finalize's trace, want its one segment", kept)
	}
	for _, span := range []string{"csr.ingest.merge", "csr.write", "csr.mmap"} {
		if findSpan(tree, span) == nil {
			t.Errorf("the finalize tree holds no %s span", span)
		}
	}
	for fam, before := range families {
		if got := exposedCount(t, ts, fam); got != before+1 {
			t.Errorf("%s = %v after one finalize, want %v", fam, got, before+1)
		}
	}
}
