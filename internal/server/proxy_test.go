package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/csr"
	"symcluster/internal/jobstore"
)

// clusterNode is one member of an in-process test cluster.
type clusterNode struct {
	s    *Server
	ts   *httptest.Server
	peer *cluster.Peer
}

// newTestCluster boots n in-process symclusterd nodes that know each
// other as peers. Listeners are bound before any server starts, so the
// peer list is complete up front; probe cadence is fast and thresholds
// forgiving enough to absorb the boot window where some listeners are
// bound but not yet serving.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]*cluster.Peer, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = &cluster.Peer{Name: l.Addr().String(), URL: "http://" + l.Addr().String(), Weight: 1}
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := Config{
			Workers: 2,
			Cluster: &ClusterConfig{
				Self:             peers[i].Name,
				Peers:            peers,
				ProbeInterval:    25 * time.Millisecond,
				FailThreshold:    3,
				RecoverThreshold: 1,
				ProxyTimeout:     5 * time.Second,
				ProxyMaxWait:     50 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := mustNew(t, cfg)
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		nodes[i] = &clusterNode{s: s, ts: ts, peer: peers[i]}
		t.Cleanup(ts.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Drain(ctx)
			s.Close()
		})
	}
	return nodes
}

// ownerIndex resolves which test node owns a graph id.
func ownerIndex(t *testing.T, nodes []*clusterNode, graphID string) int {
	t.Helper()
	owner, ok := nodes[0].s.coord.ownerOf(ringKey(graphID))
	if !ok {
		t.Fatalf("no healthy owner for %s", graphID)
	}
	for i, n := range nodes {
		if n.peer.Name == owner.Name {
			return i
		}
	}
	t.Fatalf("owner %s is not a test node", owner.Name)
	return -1
}

// getURL GETs and returns status plus body.
func getURL(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestClusterRoutesGraphToOwner(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	info := registerFigure1(t, nodes[0].ts)
	oi := ownerIndex(t, nodes, info.ID)

	// The graph lives only on its owning shard, wherever registration
	// happened to land.
	if _, ok := nodes[oi].s.lookupGraph(info.ID); !ok {
		t.Fatal("owner does not hold the graph")
	}
	if _, ok := nodes[1-oi].s.lookupGraph(info.ID); ok {
		t.Fatal("non-owner holds a copy of the graph")
	}

	// Registering the same content via the other node converges on the
	// same id (content-derived), with no duplicate state.
	if info2 := registerFigure1(t, nodes[1-oi].ts); info2.ID != info.ID {
		t.Fatalf("re-registration id %s != %s", info2.ID, info.ID)
	}

	// The graph is readable through any node: local on the owner, one
	// forwarded hop elsewhere.
	for i, n := range nodes {
		if code, body := getURL(t, n.ts.URL+"/v1/graphs/"+info.ID); code != http.StatusOK {
			t.Fatalf("GET graph via node %d: status %d: %s", i, code, body)
		}
	}

	// Synchronous clustering submitted to either node yields identical
	// assignments — the non-owner's request ran on the owner.
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	var assigns [2]string
	for i, n := range nodes {
		resp := postJSON(t, n.ts.URL+"/v1/cluster", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster via node %d: status %d", i, resp.StatusCode)
		}
		assigns[i] = fmt.Sprint(decode[ClusterResponse](t, resp).Assign)
	}
	if assigns[0] != assigns[1] {
		t.Fatalf("assignments diverge between nodes: %s vs %s", assigns[0], assigns[1])
	}

	// The non-owner counted its forwarded hops.
	metrics := scrapeMetrics(t, nodes[1-oi].ts.URL)
	if !strings.Contains(metrics, `symclusterd_proxy_requests_total{peer="`+nodes[oi].peer.Name+`"`) {
		t.Fatalf("non-owner exposition lacks proxy request counts:\n%s", metrics)
	}
}

func TestClusterJobIDsRouteAcrossNodes(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	info := registerFigure1(t, nodes[0].ts)
	oi := ownerIndex(t, nodes, info.ID)
	owner, other := nodes[oi], nodes[1-oi]

	// Async submission through the NON-owner is forwarded: the job id
	// comes back qualified with the owner's name.
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true}
	resp := postJSON(t, other.ts.URL+"/v1/cluster", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d", resp.StatusCode)
	}
	ref := decode[JobRef](t, resp)
	if !strings.HasSuffix(ref.JobID, "@"+owner.peer.Name) {
		t.Fatalf("job id %q not qualified with owner %q", ref.JobID, owner.peer.Name)
	}

	// Poll through the non-owner until done; the routed response echoes
	// the qualified id.
	var done JobInfo
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body := getURL(t, other.ts.URL+"/v1/jobs/"+ref.JobID)
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &done); err != nil {
				t.Fatal(err)
			}
			if done.State == "done" {
				break
			}
			if done.State == "failed" || done.State == "canceled" {
				t.Fatalf("job ended %q: %s", done.State, done.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", done.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.JobID != ref.JobID {
		t.Fatalf("polled JobID = %q, want the qualified %q", done.JobID, ref.JobID)
	}
	if done.Result == nil || len(done.Result.Assign) == 0 {
		t.Fatal("done job has no assignments")
	}

	// The trace is reachable through both nodes.
	for i, n := range nodes {
		if code, body := getURL(t, n.ts.URL+"/v1/jobs/"+ref.JobID+"/trace"); code != http.StatusOK {
			t.Fatalf("trace via node %d: status %d: %s", i, code, body)
		}
	}
}

func TestClusterUploadRoutesByQualifiedID(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	a, b := nodes[0], nodes[1]

	// Create the session on A; its id is pinned to A.
	resp, err := http.Post(a.ts.URL+"/v1/graphs/uploads", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload create: status %d", resp.StatusCode)
	}
	ref := decode[UploadRef](t, resp)
	if !strings.HasSuffix(ref.UploadID, "@"+a.peer.Name) {
		t.Fatalf("upload id %q not qualified with creator %q", ref.UploadID, a.peer.Name)
	}

	// Append and finalize through B: both hop back to A by the suffix.
	resp, err = http.Post(b.ts.URL+"/v1/graphs/uploads/"+ref.UploadID, "text/plain", strings.NewReader(figure1Edges))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append via peer: status %d", resp.StatusCode)
	}
	if status := decode[UploadStatus](t, resp); status.UploadID != ref.UploadID {
		t.Fatalf("append echoed id %q, want %q", status.UploadID, ref.UploadID)
	}
	resp, err = http.Post(b.ts.URL+"/v1/graphs/uploads/"+ref.UploadID+"/finalize", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("finalize via peer: status %d: %s", resp.StatusCode, body)
	}
	res := decode[UploadResult](t, resp)

	// Wherever ingest ran, the finished graph lives on its owner and is
	// immediately usable from any node.
	oi := ownerIndex(t, nodes, res.Graph.ID)
	if _, ok := nodes[oi].s.lookupGraph(res.Graph.ID); !ok {
		t.Fatalf("finalized graph %s not on its owner", res.Graph.ID)
	}
	req := ClusterRequest{GraphID: res.Graph.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	for i, n := range nodes {
		if resp := postJSON(t, n.ts.URL+"/v1/cluster", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster via node %d: status %d", i, resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}
}

// waitPeerState polls a node's /healthz until its verdict on peer
// matches want.
func waitPeerState(t *testing.T, ts *httptest.Server, peer, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getURL(t, ts.URL+"/healthz")
		if code == http.StatusOK {
			var hb healthzBody
			if err := json.Unmarshal(body, &hb); err == nil && hb.Peers[peer] == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer %s never became %q", peer, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterDownPeerAnswers503WithRetryAfter(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	info := registerFigure1(t, nodes[0].ts)
	oi := ownerIndex(t, nodes, info.ID)
	owner, other := nodes[oi], nodes[1-oi]

	// Park a job on the owner so its qualified id exists, then kill the
	// owner's listener.
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true}
	resp := postJSON(t, owner.ts.URL+"/v1/cluster", req)
	ref := decode[JobRef](t, resp)
	owner.ts.Close()
	waitPeerState(t, other.ts, owner.peer.Name, "down")

	// Polling the dead node's job through the survivor: without a
	// shared durable root there is nothing to adopt, so the survivor
	// answers 503 + Retry-After rather than pretending.
	r, err := http.Get(other.ts.URL + "/v1/jobs/" + ref.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job poll against dead peer: status %d", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// The survivor's gauge flags the dead peer.
	metrics := scrapeMetrics(t, other.ts.URL)
	want := `symclusterd_peer_unhealthy{peer="` + owner.peer.Name + `"} 1`
	if !strings.Contains(metrics, want) {
		t.Fatalf("exposition lacks %q:\n%s", want, metrics)
	}

	// Work against the dead owner's graph now reroutes to the survivor
	// (the ring skips down peers), who answers 404 locally — these nodes
	// share no durable root, so the data died with its owner. Crucially
	// it is a crisp local answer, not a 502 or a hang.
	syncReq := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	if resp := postJSON(t, other.ts.URL+"/v1/cluster", syncReq); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rerouted cluster for dead graph: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// And the cluster keeps accepting fresh work: a new registration
	// lands on the survivor (sole healthy ring member) and clusters.
	info2 := registerFigure1(t, other.ts)
	syncReq.GraphID = info2.ID
	if resp := postJSON(t, other.ts.URL+"/v1/cluster", syncReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh cluster after failover: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// seedDeadPeerStore writes a jobstore under root for a fictitious dead
// node: one persisted graph and one pending job against it. Returns
// the dead peer's name and the graph id.
func seedDeadPeerStore(t *testing.T, root string) (string, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	name := l.Addr().String()
	l.Close() // nothing will ever listen here: probes get refused

	g := mustFigure1Graph(t)
	gid := fmt.Sprintf("g-%016x", g.Fingerprint())
	st, err := jobstore.Open(filepath.Join(root, nodeDirName(name)))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "g.csr")
	if err := csr.WriteMatrix(context.Background(), tmp, g.Adj); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdoptGraphFile(gid, tmp); err != nil {
		t.Fatal(err)
	}
	reqJSON, err := json.Marshal(ClusterRequest{GraphID: gid, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Create(&jobstore.JobRecord{
		ID: "job-000001", State: jobstore.Pending, Request: reqJSON, Created: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	return name, gid
}

// newSurvivor boots one durable cluster node whose only peer is the
// (dead) named node, sharing the data root.
func newSurvivor(t *testing.T, root, deadName string) *clusterNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := &cluster.Peer{Name: l.Addr().String(), URL: "http://" + l.Addr().String(), Weight: 1}
	dead := &cluster.Peer{Name: deadName, URL: "http://" + deadName, Weight: 1}
	s := mustNew(t, Config{
		Workers: 2,
		DataDir: root,
		Cluster: &ClusterConfig{
			Self:             self.Name,
			Peers:            []*cluster.Peer{dead, self},
			ProbeInterval:    20 * time.Millisecond,
			FailThreshold:    2,
			RecoverThreshold: 1,
			ProxyMaxWait:     50 * time.Millisecond,
		},
	})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	})
	return &clusterNode{s: s, ts: ts, peer: self}
}

func TestClusterAdoptsDeadPeerWAL(t *testing.T) {
	root := t.TempDir()
	deadName, _ := seedDeadPeerStore(t, root)
	node := newSurvivor(t, root, deadName)

	// The survivor detects the refused peer, adopts its WAL, resumes
	// the pending job, and serves it under the dead node's qualified id.
	var done JobInfo
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body := getURL(t, node.ts.URL+"/v1/jobs/job-000001@"+deadName)
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
		time.Sleep(10 * time.Millisecond)
	}
	if done.Result == nil || len(done.Result.Assign) == 0 {
		t.Fatal("adopted job finished without assignments")
	}
	metrics := scrapeMetrics(t, node.ts.URL)
	if !strings.Contains(metrics, "symclusterd_jobs_adopted_total 1") {
		t.Fatalf("jobs_adopted_total != 1:\n%s", metrics)
	}

	// The dead peer's journal was fenced: a reboot of that node replays
	// the job as canceled, not as runnable work.
	st, err := jobstore.Open(filepath.Join(root, nodeDirName(deadName)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, ok := st.Snapshot("job-000001")
	if !ok {
		t.Fatal("fenced job vanished from the dead WAL")
	}
	if rec.State != jobstore.Canceled {
		t.Fatalf("dead WAL job state = %s, want canceled (fenced)", rec.State)
	}
	if !strings.Contains(rec.Err, "adopted by "+node.peer.Name) {
		t.Fatalf("fence marker = %q", rec.Err)
	}
}

func TestClusterDoesNotAdoptFromShedding503Peer(t *testing.T) {
	root := t.TempDir()

	// A peer that is alive but shedding: /healthz (and everything else)
	// answers 503. It must be declared down for routing, but its WAL
	// must NOT be adopted — the process owns it and will recover.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shedding := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})}
	go shedding.Serve(l)
	t.Cleanup(func() { shedding.Close() })
	deadName := l.Addr().String()

	// Seed that peer's store with a pending job, as if it crashed —
	// except it didn't: it is answering 503s.
	g := mustFigure1Graph(t)
	gid := fmt.Sprintf("g-%016x", g.Fingerprint())
	st, err := jobstore.Open(filepath.Join(root, nodeDirName(deadName)))
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, _ := json.Marshal(ClusterRequest{GraphID: gid, Method: "dd", Algorithm: "mcl", Seed: 1})
	if err := st.Create(&jobstore.JobRecord{
		ID: "job-000001", State: jobstore.Pending, Request: reqJSON, Created: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	node := newSurvivor(t, root, deadName)
	waitPeerState(t, node.ts, deadName, "down")
	// Give several further probe rounds a chance to (wrongly) adopt.
	time.Sleep(150 * time.Millisecond)

	metrics := scrapeMetrics(t, node.ts.URL)
	if !strings.Contains(metrics, "symclusterd_jobs_adopted_total 0") {
		t.Fatalf("adoption ran against a live (shedding) peer:\n%s", metrics)
	}
	// And the job routes as "down, failover in progress", not adopted.
	code, _ := getURL(t, node.ts.URL+"/v1/jobs/job-000001@"+deadName)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("job poll: status %d, want 503", code)
	}
}

func TestUploadSessionsExpireAfterTTL(t *testing.T) {
	// TTL long enough that the background sweeper never fires during
	// the test; expiry is driven synchronously for determinism.
	s, ts := newTestServer(t, Config{Workers: 1, UploadTTL: time.Hour})
	resp, err := http.Post(ts.URL+"/v1/graphs/uploads", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := decode[UploadRef](t, resp)
	sess, ok := s.lookupUpload(ref.UploadID)
	if !ok {
		t.Fatal("session not registered")
	}
	scratch := sess.dir

	// A sweep before the TTL leaves the session alive.
	s.expireUploads(time.Now())
	r, err := http.Post(ts.URL+"/v1/graphs/uploads/"+ref.UploadID, "text/plain", strings.NewReader("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("append before TTL: status %d", r.StatusCode)
	}

	// A sweep past the TTL reaps it: the session is gone, its scratch
	// directory deleted, and the expiry counted.
	s.expireUploads(time.Now().Add(2 * time.Hour))
	r, err = http.Post(ts.URL+"/v1/graphs/uploads/"+ref.UploadID, "text/plain", strings.NewReader("1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("append after expiry: status %d, want 404", r.StatusCode)
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Fatalf("expired session scratch %s still present (err=%v)", scratch, err)
	}
	metrics := scrapeMetrics(t, ts.URL)
	if !strings.Contains(metrics, "symclusterd_upload_sessions_expired_total 1") {
		t.Fatalf("upload_sessions_expired_total != 1:\n%s", metrics)
	}
}

func TestSingleNodeIDsStayUnqualified(t *testing.T) {
	// Single-node mode must be byte-compatible with the pre-cluster
	// daemon: no "@" qualification anywhere.
	_, ts := newTestServer(t, Config{Workers: 1})
	info := registerFigure1(t, ts)
	req := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true}
	resp := postJSON(t, ts.URL+"/v1/cluster", req)
	ref := decode[JobRef](t, resp)
	if strings.Contains(ref.JobID, "@") {
		t.Fatalf("single-node job id %q is qualified", ref.JobID)
	}
	r, err := http.Post(ts.URL+"/v1/graphs/uploads", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	uref := decode[UploadRef](t, r)
	if strings.Contains(uref.UploadID, "@") {
		t.Fatalf("single-node upload id %q is qualified", uref.UploadID)
	}
}
