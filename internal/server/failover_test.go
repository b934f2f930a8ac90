package server_test

// Two-node failover end-to-end: build the real symclusterd binary,
// boot a two-node cluster on a shared durable root, run a slow
// checkpointing job on whichever node owns the graph, SIGKILL that
// node mid-iteration, and require that the SURVIVOR (a) takes the dead
// node's journal lock and adopts its WAL, (b) finishes the job from its
// last checkpoint (resume_iter > 0), and (c) produces exactly the
// assignments an uninterrupted run gives. This is the acceptance gate
// for the multi-node PR; `make cluster` runs it under -race.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/server"
)

// startClusterDaemon launches one cluster member and waits for its
// /healthz.
func startClusterDaemon(t *testing.T, bin, addr, dataDir, peers, faults string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-checkpoint-iters", "1",
		"-workers", "1",
		"-log-format", "text", "-log-level", "warn",
		"-peers", peers,
		"-self", addr,
	)
	cmd.Env = append(os.Environ(), "SYMCLUSTER_FAULTS="+faults)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("cluster daemon never became healthy")
	return nil
}

func TestClusterFailoverResume(t *testing.T) {
	bin := buildSymclusterd(t)
	root := t.TempDir()
	addrA, addrB := freeAddr(t), freeAddr(t)
	peers := "http://" + addrA + ",http://" + addrB

	// Both nodes get the slow kernel: the job runs wherever the graph
	// hashes, and only the run needs slowing.
	faults := "mcl.iterate=delay:50ms"
	dA := startClusterDaemon(t, bin, addrA, root, peers, faults)
	defer func() { dA.Process.Kill(); dA.Wait() }()
	dB := startClusterDaemon(t, bin, addrB, root, peers, faults)
	defer func() { dB.Process.Kill(); dB.Wait() }()

	// Register through A; routing sends the graph to its owner.
	edges := blockEdges()
	resp, err := http.Post("http://"+addrA+"/v1/graphs", "text/plain", strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	var ginfo server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&ginfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ginfo.ID == "" {
		t.Fatal("graph registration returned no id")
	}

	// Async submit through A; the qualified job id names the owner.
	req, _ := json.Marshal(server.ClusterRequest{
		GraphID: ginfo.ID, Method: "dd", Algorithm: "mcl", Seed: 5, Async: true,
	})
	resp, err = http.Post("http://"+addrA+"/v1/cluster", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var ref server.JobRef
	if err := json.NewDecoder(resp.Body).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, ownerName, ok := strings.Cut(ref.JobID, "@")
	if !ok {
		t.Fatalf("job id %q carries no owner qualifier", ref.JobID)
	}
	var owner, survivor *exec.Cmd
	var ownerAddr, survivorAddr string
	switch ownerName {
	case addrA:
		owner, ownerAddr, survivor, survivorAddr = dA, addrA, dB, addrB
	case addrB:
		owner, ownerAddr, survivor, survivorAddr = dB, addrB, dA, addrA
	default:
		t.Fatalf("job owner %q is neither node", ownerName)
	}
	_ = survivor

	// Let the owner checkpoint at least twice, then SIGKILL it: no
	// drain, no goodbye — failover must come from the lock and the WAL.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := getBody(t, "http://"+ownerAddr+"/metrics")
		if metricValue(body, "symclusterd_checkpoints_total") >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoints observed before kill deadline")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := owner.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	owner.Wait()

	// Poll the SURVIVOR with the dead node's qualified id. Until its
	// sweep takes the dead node's lock we see 503; then the survivor
	// adopts the WAL and the job finishes locally.
	var done server.JobInfo
	deadline = time.Now().Add(60 * time.Second)
	for {
		code, body := getBody(t, "http://"+survivorAddr+"/v1/jobs/"+ref.JobID)
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &done); err != nil {
				t.Fatal(err)
			}
			if done.State == "done" {
				break
			}
			if done.State == "failed" {
				t.Fatalf("adopted job failed: %s", done.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted job never finished (last state %q)", done.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if done.Result == nil || len(done.Result.Assign) == 0 {
		t.Fatal("adopted job finished without assignments")
	}
	// The adopted run got a fresh trace, linked back to the dead node's
	// original trace id (journaled with the start op, so it survived
	// the crash).
	if done.LinkTraceID == "" {
		t.Fatal("adopted job carries no link_trace_id back to the dead run")
	}
	if done.TraceID == "" || done.TraceID == done.LinkTraceID {
		t.Fatalf("adopted trace_id %q must be fresh and distinct from link %q", done.TraceID, done.LinkTraceID)
	}

	// It resumed from the dead node's checkpoint, not from scratch.
	_, trace := getBody(t, "http://"+survivorAddr+"/v1/jobs/"+ref.JobID+"/trace")
	m := regexp.MustCompile(`"resume_iter":\s*(\d+)`).FindSubmatch(trace)
	if m == nil {
		t.Fatalf("trace has no resume_iter attribute:\n%s", trace)
	}
	if iter, _ := strconv.Atoi(string(m[1])); iter == 0 {
		t.Fatalf("resume_iter = 0: the adopted job restarted from scratch\n%s", trace)
	}
	if !bytes.Contains(trace, []byte(`"link_trace_id":"`+done.LinkTraceID+`"`)) {
		t.Fatalf("adopted trace root does not link trace %s:\n%s", done.LinkTraceID, trace)
	}

	// The survivor accounted for the failover.
	_, metrics := getBody(t, "http://"+survivorAddr+"/metrics")
	if metricValue(metrics, "symclusterd_jobs_adopted_total") < 1 {
		t.Fatalf("jobs_adopted_total < 1:\n%s", metrics)
	}

	// Ground truth: the same job, uninterrupted, on the survivor, which
	// imported the graph with the job. The ring still names the dead
	// owner, so the request is marked as having taken its hop, and the
	// survivor serves it where it lands. Assignments must match exactly.
	syncReq, _ := json.Marshal(server.ClusterRequest{
		GraphID: ginfo.ID, Method: "dd", Algorithm: "mcl", Seed: 5,
	})
	hr, _ := http.NewRequest(http.MethodPost, "http://"+survivorAddr+"/v1/cluster", bytes.NewReader(syncReq))
	hr.Header.Set("Content-Type", "application/json")
	cluster.MarkForwarded(hr.Header, ownerAddr)
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var baseResp server.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&baseResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fmt.Sprint(done.Result.Assign) != fmt.Sprint(baseResp.Assign) {
		t.Fatalf("failover assignments %v != uninterrupted %v", done.Result.Assign, baseResp.Assign)
	}
}
