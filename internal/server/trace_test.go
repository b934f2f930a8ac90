package server

import (
	"net/http"
	"testing"
	"time"

	"symcluster/internal/faultinject"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// findSpan walks the span tree depth-first for the first node with the
// given name.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// checkSpanTimes walks the tree asserting every span is well-formed:
// started, ended no earlier than it started, and contained within its
// parent's window.
func checkSpanTimes(t *testing.T, n *obs.SpanNode, parent *obs.SpanNode) {
	t.Helper()
	if n.StartUnixNano <= 0 {
		t.Errorf("span %s: start %d not positive", n.Name, n.StartUnixNano)
	}
	if n.EndUnixNano == 0 {
		t.Errorf("span %s: never ended", n.Name)
	} else if n.EndUnixNano < n.StartUnixNano {
		t.Errorf("span %s: ends %d before start %d", n.Name, n.EndUnixNano, n.StartUnixNano)
	}
	if n.DurationMillis < 0 {
		t.Errorf("span %s: negative duration %v", n.Name, n.DurationMillis)
	}
	if parent != nil {
		if n.StartUnixNano < parent.StartUnixNano {
			t.Errorf("span %s starts before parent %s", n.Name, parent.Name)
		}
		if parent.EndUnixNano != 0 && n.EndUnixNano > parent.EndUnixNano {
			t.Errorf("span %s ends after parent %s", n.Name, parent.Name)
		}
	}
	for _, c := range n.Children {
		checkSpanTimes(t, c, n)
	}
}

// TestClusterResponseSpanTree is the golden shape test for the span
// tree a synchronous clustering run embeds in its response:
// request → symmetrize → cluster, with the MCL kernel span nested
// under the cluster stage and all timestamps monotonic.
func TestClusterResponseSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	info := registerFigure1(t, ts)
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster: status %d", resp.StatusCode)
	}
	res := decode[ClusterResponse](t, resp)
	if res.Trace == nil || res.Trace.Spans == nil {
		t.Fatal("response carries no span tree")
	}
	root := res.Trace.Spans

	if root.Name != "request" {
		t.Fatalf("root span = %q, want request", root.Name)
	}
	if root.TraceID == "" {
		t.Error("root span has no trace_id")
	}
	if root.Error != "" {
		t.Errorf("successful run has root error %q", root.Error)
	}
	checkSpanTimes(t, root, nil)

	// Stage order under the root: symmetrize strictly before cluster.
	var sym, cl *obs.SpanNode
	for _, c := range root.Children {
		switch c.Name {
		case "symmetrize":
			sym = c
		case "cluster":
			cl = c
		}
	}
	if sym == nil || cl == nil {
		names := make([]string, len(root.Children))
		for i, c := range root.Children {
			names[i] = c.Name
		}
		t.Fatalf("root children %v, want symmetrize and cluster", names)
	}
	if sym.EndUnixNano > cl.StartUnixNano {
		t.Errorf("symmetrize ends at %d after cluster starts at %d",
			sym.EndUnixNano, cl.StartUnixNano)
	}
	if sym.Attrs["name"] != "dd" {
		t.Errorf("symmetrize name attr = %v, want dd", sym.Attrs["name"])
	}
	if cl.Attrs["name"] != "mcl" {
		t.Errorf("cluster name attr = %v, want mcl", cl.Attrs["name"])
	}

	// The symmetrization kernel span nests under the symmetrize stage
	// and the MCL kernel span under the cluster stage.
	if findSpan(sym, "core.symmetrize") == nil {
		t.Error("no core.symmetrize span under the symmetrize stage")
	}
	mcl := findSpan(cl, "mcl.iterate")
	if mcl == nil {
		t.Fatal("no mcl.iterate span under the cluster stage")
	}
	// JSON numbers decode as float64; just require a positive count.
	if v, ok := mcl.Attrs["iterations"].(float64); !ok || v < 1 {
		t.Errorf("mcl.iterate iterations attr = %v", mcl.Attrs["iterations"])
	}
}

// TestFaultedRunKeepsErroredSpan arms an injected fault inside the MCL
// iteration and verifies the failed async job still retains its trace,
// with the mcl.iterate span marked errored rather than dropped.
func TestFaultedRunKeepsErroredSpan(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)

	faultinject.Set("mcl.iterate", faultinject.Fault{Mode: faultinject.Error})
	resp := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1,
		Async: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)

	deadline := time.Now().Add(10 * time.Second)
	for {
		jresp, err := http.Get(ts.URL + ref.Location)
		if err != nil {
			t.Fatal(err)
		}
		job := decode[JobInfo](t, jresp)
		if job.State == string(jobstore.Failed) {
			break
		}
		if job.State == string(jobstore.Done) {
			t.Fatal("faulted job reported done")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	faultinject.Reset()

	tresp, err := http.Get(ts.URL + ref.Location + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace of failed job: status %d", tresp.StatusCode)
	}
	root := decode[*obs.SpanNode](t, tresp)
	if root.Name != "request" || root.Error == "" {
		t.Fatalf("root = %q error = %q, want errored request span", root.Name, root.Error)
	}
	mcl := findSpan(root, "mcl.iterate")
	if mcl == nil {
		t.Fatal("errored run dropped the mcl.iterate span")
	}
	if mcl.Error == "" {
		t.Error("mcl.iterate span not marked errored")
	}
	checkSpanTimes(t, root, nil)
}

// TestJobTraceEndpointUnknown covers the endpoint's 404 paths.
func TestJobTraceEndpointUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d", resp.StatusCode)
	}
}
