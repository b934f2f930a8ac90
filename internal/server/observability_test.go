package server_test

// Two-node observability end-to-end (`make cluster` runs it under
// -race): submit a job through the node that does NOT own the graph so
// the request is proxied, then require (a) one stitched span tree —
// the entry node's "proxy" root with the owner's "request" segment
// nested under it, every span sharing one trace id — retrievable from
// either node; (b) nonzero per-job resource accounting (queue wait,
// stage CPU, allocation) at /v1/jobs/{id}/stats, surviving a SIGKILL
// and restart of the owner because the snapshot rides the WAL finish
// record; and (c) a federated /v1/cluster/status that reports a killed
// peer down, with the fetch's error, without the report ever blocking
// on the dead socket (DESIGN.md §16).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"symcluster/internal/obs"
	"symcluster/internal/server"
)

// spanNames flattens a span tree into its set of span names.
func spanNames(n *obs.SpanNode, into map[string]bool) {
	if n == nil {
		return
	}
	into[n.Name] = true
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

// traceIDs collects every non-empty trace id in the tree. A correctly
// stitched cross-node tree has exactly one.
func traceIDs(n *obs.SpanNode, into map[string]bool) {
	if n == nil {
		return
	}
	if n.TraceID != "" {
		into[n.TraceID] = true
	}
	for _, c := range n.Children {
		traceIDs(c, into)
	}
}

// requireJobStats asserts the accounting a finished dd+mcl run must
// carry: the job waited in the queue, both stages ran, and the cluster
// stage burned measurable CPU and allocation.
func requireJobStats(t *testing.T, from string, stats *obs.JobStatsSnapshot) {
	t.Helper()
	if stats == nil {
		t.Fatalf("%s: stats are nil", from)
	}
	if stats.QueueWaitMillis <= 0 {
		t.Fatalf("%s: queue_wait_millis = %v, want > 0", from, stats.QueueWaitMillis)
	}
	for _, stage := range []string{"symmetrize", "cluster"} {
		if _, ok := stats.Stages[stage]; !ok {
			t.Fatalf("%s: no %q stage in %+v", from, stage, stats.Stages)
		}
	}
	cl := stats.Stages["cluster"]
	if cl.WallMillis <= 0 {
		t.Fatalf("%s: cluster stage wall_millis = %v, want > 0", from, cl.WallMillis)
	}
	if cl.CPUMillis <= 0 {
		t.Fatalf("%s: cluster stage cpu_millis = %v, want > 0", from, cl.CPUMillis)
	}
	if cl.AllocBytes <= 0 {
		t.Fatalf("%s: cluster stage alloc_bytes = %v, want > 0", from, cl.AllocBytes)
	}
	if stats.CacheHits+stats.CacheMisses == 0 {
		t.Fatalf("%s: no symmetrization-cache lookups recorded", from)
	}
}

func TestClusterObservability(t *testing.T) {
	bin := buildSymclusterd(t)
	root := t.TempDir()
	addrA, addrB := freeAddr(t), freeAddr(t)
	peers := "http://" + addrA + ",http://" + addrB

	faults := "mcl.iterate=delay:20ms"
	dA := startClusterDaemon(t, bin, addrA, root, peers, faults)
	defer func() { dA.Process.Kill(); dA.Wait() }()
	dB := startClusterDaemon(t, bin, addrB, root, peers, faults)
	defer func() { dB.Process.Kill(); dB.Wait() }()

	// Register through A; routing pushes the graph to its ring owner.
	resp, err := http.Post("http://"+addrA+"/v1/graphs", "text/plain", strings.NewReader(blockEdges()))
	if err != nil {
		t.Fatal(err)
	}
	var ginfo server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&ginfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Submit through A; the qualified job id names the owner. When A
	// owns the graph that submission was local, so resubmit through B —
	// either way the job under test crossed the proxy hop.
	submit := func(via string) server.JobRef {
		req, _ := json.Marshal(server.ClusterRequest{
			GraphID: ginfo.ID, Method: "dd", Algorithm: "mcl", Seed: 5, Async: true,
		})
		resp, err := http.Post("http://"+via+"/v1/cluster", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ref server.JobRef
		if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted || ref.JobID == "" {
			t.Fatalf("submit via %s: status %d, ref %+v", via, resp.StatusCode, ref)
		}
		return ref
	}
	ref := submit(addrA)
	_, ownerName, ok := strings.Cut(ref.JobID, "@")
	if !ok {
		t.Fatalf("job id %q carries no owner qualifier", ref.JobID)
	}
	if ownerName == addrA {
		ref = submit(addrB)
	}
	ownerAddr, otherAddr := ownerName, addrA
	if ownerAddr == addrA {
		otherAddr = addrB
	}
	owner := dA
	if ownerAddr == addrB {
		owner = dB
	}

	// Wait for the proxied job to finish (polling the non-owner proves
	// routing on the way out too).
	var done server.JobInfo
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := getBody(t, "http://"+otherAddr+"/v1/jobs/"+ref.JobID)
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &done); err != nil {
				t.Fatal(err)
			}
			if done.State == "done" {
				break
			}
			if done.State == "failed" {
				t.Fatalf("proxied job failed: %s", done.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxied job never finished (last state %q)", done.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if done.TraceID == "" {
		t.Fatal("finished job carries no trace_id")
	}

	// One stitched tree from either node: the entry node's "proxy" span
	// is the root, the owner's "request" segment (with its stage spans)
	// nests under it, and exactly one trace id covers everything.
	for _, via := range []string{ownerAddr, otherAddr} {
		code, body := getBody(t, "http://"+via+"/v1/jobs/"+ref.JobID+"/trace")
		if code != http.StatusOK {
			t.Fatalf("trace via %s: status %d: %s", via, code, body)
		}
		var tree obs.SpanNode
		if err := json.Unmarshal(body, &tree); err != nil {
			t.Fatal(err)
		}
		if tree.Name != "proxy" {
			t.Fatalf("trace via %s: root span is %q, want the entry node's \"proxy\" span:\n%s", via, tree.Name, body)
		}
		names := map[string]bool{}
		spanNames(&tree, names)
		for _, want := range []string{"proxy", "request", "symmetrize", "cluster"} {
			if !names[want] {
				t.Fatalf("trace via %s: no %q span in stitched tree:\n%s", via, want, body)
			}
		}
		ids := map[string]bool{}
		traceIDs(&tree, ids)
		if len(ids) != 1 || !ids[done.TraceID] {
			t.Fatalf("trace via %s: want exactly one trace id %q, got %v", via, done.TraceID, ids)
		}
	}

	// Resource accounting is served from either node (routed to the
	// owner) and is nonzero where the run must have spent resources.
	code, body := getBody(t, "http://"+otherAddr+"/v1/jobs/"+ref.JobID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var stats obs.JobStatsSnapshot
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	requireJobStats(t, "live stats", &stats)

	// SIGKILL the owner and restart it on the same durable root: the
	// snapshot rode the WAL finish record, so the replayed job still
	// serves its accounting.
	if err := owner.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	owner.Wait()
	owner = startClusterDaemon(t, bin, ownerAddr, root, peers, faults)
	defer func() { owner.Process.Kill(); owner.Wait() }()
	code, body = getBody(t, "http://"+ownerAddr+"/v1/jobs/"+ref.JobID+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats after restart: status %d: %s", code, body)
	}
	stats = obs.JobStatsSnapshot{}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	requireJobStats(t, "restarted stats", &stats)

	// Federated status: with both nodes up, the report names both as
	// "up" from live fan-out.
	waitStatus := func(via, peer, want string) server.ClusterStatus {
		t.Helper()
		var st server.ClusterStatus
		deadline := time.Now().Add(15 * time.Second)
		for {
			start := time.Now()
			code, body := getBody(t, "http://"+via+"/v1/cluster/status")
			if took := time.Since(start); took > 3*time.Second {
				t.Fatalf("/v1/cluster/status blocked for %v (must degrade, not block)", took)
			}
			if code == http.StatusOK {
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				for _, n := range st.Nodes {
					if n.Name == peer && n.State == want {
						return st
					}
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %s never reached state %q in %s", peer, want, body)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	st := waitStatus(ownerAddr, otherAddr, "up")
	if st.Self != ownerAddr {
		t.Fatalf("status self = %q, want %q", st.Self, ownerAddr)
	}
	for _, n := range st.Nodes {
		if n.Name == otherAddr && n.Version == "" {
			t.Fatalf("live peer row has no version (fan-out did not reach it): %+v", n)
		}
	}

	// Kill the other node: its row must flip to "down" — the fan-out
	// fetch fails within its timeout, so the report keeps answering
	// fast while the socket is dead.
	other := dA
	if otherAddr == addrB {
		other = dB
	}
	if err := other.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	other.Wait()
	st = waitStatus(ownerAddr, otherAddr, "down")
	for _, n := range st.Nodes {
		if n.Name == ownerAddr && n.State != "up" {
			t.Fatalf("surviving node reports itself %q, want up", n.State)
		}
		if n.Name == otherAddr && n.Error == "" {
			t.Fatalf("down row carries no error: %+v", n)
		}
	}
}
