package server

import (
	"bytes"
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
	"sync/atomic"
	"testing"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/csr"
	"symcluster/internal/faultinject"
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
// peer list is complete up front.
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
			Cluster: &ClusterConfig{Self: peers[i].Name, Peers: peers},
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
	owner := nodes[0].s.coord.ownerOf(ringKey(graphID))
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

// TestClusterDownPeerAnswers503WithRetryAfter: with the owner's
// listener gone and no shared durable root, every request that belongs
// to it — a poll of its job, clustering on its graph, a registration
// of a graph it owns — is refused 503 + Retry-After: 1 by the other
// node, while the other node's own work goes on.
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

	syncReq := ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1}
	syncBody, _ := json.Marshal(syncReq)
	for name, send := range map[string]func() (*http.Response, error){
		"job poll": func() (*http.Response, error) { return http.Get(other.ts.URL + "/v1/jobs/" + ref.JobID) },
		"cluster": func() (*http.Response, error) {
			return http.Post(other.ts.URL+"/v1/cluster", "application/json", bytes.NewReader(syncBody))
		},
		"register": func() (*http.Response, error) {
			return http.Post(other.ts.URL+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
		},
	} {
		r, err := send()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "owner "+owner.peer.Name+" unreachable") {
			t.Fatalf("%s against the dead owner: status %d %s, want 503 owner unreachable", name, r.StatusCode, body)
		}
		if ra := r.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("%s: Retry-After = %q, want 1", name, ra)
		}
	}

	// A graph the survivor owns still registers and clusters there: a
	// directed cycle, lengthened until the ring gives it to the survivor.
	var edges strings.Builder
	for n := 3; ; n++ {
		edges.Reset()
		for i := range n {
			fmt.Fprintf(&edges, "%d %d\n", i, (i+1)%n)
		}
		if other.s.coord.ownerOf(fingerprintOf(t, edges.String())) == other.peer {
			break
		}
	}
	syncReq.GraphID = registerEdges(t, other.ts.URL, []byte(edges.String())).ID
	if resp := postJSON(t, other.ts.URL+"/v1/cluster", syncReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster on the survivor's own graph: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// seedPeerStore opens the jobstore the node called name keeps under
// root and writes what a node leaves when it dies mid-queue: one
// persisted graph and one pending job, job-000001, against it. The
// store comes back open, holding the journal's lock: until it is
// closed, the node's process counts as alive.
func seedPeerStore(t *testing.T, root, name string) *jobstore.Store {
	t.Helper()
	return seedStore(t, filepath.Join(root, nodeDirName(name)))
}

// seedStore is seedPeerStore on the journal in dir.
func seedStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	g := mustFigure1Graph(t)
	gid := fmt.Sprintf("g-%016x", g.Fingerprint())
	st, err := jobstore.Open(dir)
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
	t.Cleanup(func() { st.Close() })
	reqJSON, err := json.Marshal(ClusterRequest{GraphID: gid, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if job, _, err := st.Admit(jobstore.JobRecord{Request: reqJSON}); err != nil || job.ID != "job-000001" {
		t.Fatalf("seeding the peer's job: %+v, %v", job, err)
	}
	return st
}

// refusedPeerName names a fictitious peer that nothing listens for, so
// every hop to it is refused.
func refusedPeerName(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return l.Addr().String()
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
	return bootDurableNode(t, l, root, self, dead)
}

// bootDurableNode serves a durable cluster node called self on l, with
// the data root and the peers given.
func bootDurableNode(t *testing.T, l net.Listener, root string, self *cluster.Peer, peers ...*cluster.Peer) *clusterNode {
	t.Helper()
	s := mustNew(t, Config{
		Workers: 2,
		DataDir: root,
		Cluster: &ClusterConfig{Self: self.Name, Peers: append(peers, self)},
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

// waitAdoptedDone polls a dead peer's job through the survivor until
// the adopted copy finishes with assignments.
func waitAdoptedDone(t *testing.T, node *clusterNode, qualifiedID string) {
	t.Helper()
	var done JobInfo
	deadline := time.Now().Add(15 * time.Second)
	for done.State != "done" {
		if code, body := getURL(t, node.ts.URL+"/v1/jobs/"+qualifiedID); code == http.StatusOK {
			if err := json.Unmarshal(body, &done); err != nil {
				t.Fatal(err)
			}
			if done.State == "failed" {
				t.Fatalf("adopted job %s failed: %s", qualifiedID, done.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("adopted job %s never finished (last state %q)", qualifiedID, done.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.Result == nil || len(done.Result.Assign) == 0 {
		t.Fatalf("adopted job %s finished without assignments", qualifiedID)
	}
}

// adoptedTotal reads the survivor's symclusterd_jobs_adopted_total.
func adoptedTotal(node *clusterNode) int64 { return int64(node.s.metrics.jobsAdopted.Value()) }

func TestClusterAdoptsDeadPeerWAL(t *testing.T) {
	root := t.TempDir()
	deadName := refusedPeerName(t)
	seedPeerStore(t, root, deadName).Close()
	node := newSurvivor(t, root, deadName)

	// The survivor's sweep takes the dead peer's lock, adopts its WAL,
	// resumes the pending job, and serves it under the dead node's
	// qualified id.
	waitAdoptedDone(t, node, "job-000001@"+deadName)
	if n := adoptedTotal(node); n != 1 {
		t.Fatalf("jobs_adopted_total = %d, want 1", n)
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

// TestClusterAdoptsOnlyFromExitedOwner pins that the journal's lock
// decides adoption. The test holds the owner's store open — its process
// is alive — while nothing answers at its address: the survivor's
// adoption passes neither adopt its job nor write to its WAL, and a poll
// of the job is refused 503. Closing the store is the process dying: the
// survivor's sweep then adopts the job and finishes it. The re-death row
// reboots the owner long enough to take a second job and kills it again,
// and that job is adopted too.
func TestClusterAdoptsOnlyFromExitedOwner(t *testing.T) {
	for _, tc := range []struct {
		name      string
		diesTwice bool
	}{
		{name: "live owner not adopted"},
		{name: "re-death adopted twice", diesTwice: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			name := refusedPeerName(t)
			st := seedPeerStore(t, root, name)
			walPath := filepath.Join(root, nodeDirName(name), "wal")

			node := newSurvivor(t, root, name)
			// Adoption passes, run here as the sweep runs them.
			for range 3 {
				node.s.coord.adoptFrom(&cluster.Peer{Name: name})
			}
			if n := adoptedTotal(node); n != 0 {
				t.Fatalf("jobs_adopted_total = %d while the owner lives, want 0", n)
			}
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) != st.LogBytes() || strings.Contains(string(raw), "adopted by") {
				t.Fatalf("a second writer touched the live owner's WAL: %d bytes on disk, %d written by the owner",
					len(raw), st.LogBytes())
			}
			if code, _ := getURL(t, node.ts.URL+"/v1/jobs/job-000001@"+name); code != http.StatusServiceUnavailable {
				t.Fatalf("job poll while the owner lives: status %d, want 503", code)
			}

			st.Close()
			waitAdoptedDone(t, node, "job-000001@"+name)
			if !tc.diesTwice {
				return
			}
			st, err = jobstore.Open(filepath.Join(root, nodeDirName(name)))
			if err != nil {
				t.Fatal(err)
			}
			first, _ := st.Snapshot("job-000001")
			job, _, err := st.Admit(jobstore.JobRecord{Request: first.Request})
			st.Close()
			if err != nil || job.ID != "job-000002" {
				t.Fatalf("rebooted owner's job: %+v, %v; want job-000002", job, err)
			}
			waitAdoptedDone(t, node, "job-000002@"+name)
			if n := adoptedTotal(node); n != 2 {
				t.Fatalf("jobs_adopted_total = %d after the second death, want 2", n)
			}
		})
	}
}

// TestIdempotencyKeyStaysWithRingOwner pins ROADMAP item 9(c): a keyed
// async submission is journaled on the graph's ring owner or nowhere.
// With every hop failing, the submission through the non-owner is a 503
// and no node journals the key; once hops work again, resubmitting the
// key through each node in turn — in either order — names one job, on
// the owner.
func TestIdempotencyKeyStaysWithRingOwner(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ownerFirst bool
	}{{"non-owner first", false}, {"owner first", true}} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			nodes := newTestCluster(t, 2, nil)
			info := registerFigure1(t, nodes[0].ts)
			oi := ownerIndex(t, nodes, info.ID)
			owner, other := nodes[oi], nodes[1-oi]
			const key = "pin-9c"
			body, _ := json.Marshal(ClusterRequest{GraphID: info.ID, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true})
			submit := func(via *clusterNode) (int, string) {
				req, _ := http.NewRequest(http.MethodPost, via.ts.URL+"/v1/cluster", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("Idempotency-Key", key)
				resp, text := do(t, req)
				return resp.StatusCode, text
			}

			// The non-owner holds a copy of the graph, as a node that once
			// adopted a job on it (and imported the graph) does: a copy is
			// no claim on the graph's new work.
			other.s.RegisterGraph(mustFigure1Graph(t))
			faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error})
			if code, text := submit(other); code != http.StatusServiceUnavailable {
				t.Fatalf("keyed submit through the non-owner with hops failing: status %d, want 503: %s", code, text)
			}
			for _, n := range nodes {
				if id, ok := n.s.jobs.LookupByKey(key); ok {
					t.Fatalf("node %s journaled the refused key as %s", n.peer.Name, id)
				}
			}

			faultinject.Reset()
			order := []*clusterNode{other, owner}
			if tc.ownerFirst {
				order = []*clusterNode{owner, other}
			}
			var ids []string
			for _, via := range order {
				code, text := submit(via)
				if code != http.StatusAccepted {
					t.Fatalf("resubmit through %s: status %d: %s", via.peer.Name, code, text)
				}
				var ref JobRef
				if err := json.Unmarshal([]byte(text), &ref); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, ref.JobID)
			}
			if ids[0] != ids[1] || !strings.HasSuffix(ids[0], "@"+owner.peer.Name) {
				t.Fatalf("key %q named jobs %q and %q, want one job on the owner %s", key, ids[0], ids[1], owner.peer.Name)
			}
			if _, ok := other.s.jobs.LookupByKey(key); ok {
				t.Fatal("the non-owner journaled the key too")
			}
		})
	}
}

// TestAdoptedCopyOutranksCreator: once a job is adopted, its id is
// served from the adopter's copy even after its creator is back and
// answering — the creator holds only the fenced record. The stand-in
// creator is healthy on /healthz and refuses everything else.
func TestAdoptedCopyOutranksCreator(t *testing.T) {
	root := t.TempDir()
	name := refusedPeerName(t)
	seedPeerStore(t, root, name).Close()
	node := newSurvivor(t, root, name)
	waitAdoptedDone(t, node, "job-000001@"+name)

	var hops atomic.Int32
	l, err := net.Listen("tcp", name)
	if err != nil {
		t.Fatal(err)
	}
	creator := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		hops.Add(1)
		http.Error(w, "the creator was asked", http.StatusInternalServerError)
	}))
	creator.Listener.Close()
	creator.Listener = l
	creator.Start()
	t.Cleanup(creator.Close)
	for _, route := range []string{"", "/trace", "/stats"} {
		if code, body := getURL(t, node.ts.URL+"/v1/jobs/job-000001@"+name+route); code != http.StatusOK {
			t.Fatalf("GET job%s through the adopter: status %d: %s", route, code, body)
		}
	}
	if n := hops.Load(); n != 0 {
		t.Fatalf("the adopter forwarded %d requests to the creator", n)
	}
}

// TestRestartedCreatorForwardsAdoptedJob: once the creator of an
// adopted job is back on its data root, its record of the job is the
// fence the adopter journaled — canceled, naming the adopter — and
// the id, asked of the creator, is answered from the adopted copy, as
// it is through the adopter: never from the fence.
func TestRestartedCreatorForwardsAdoptedJob(t *testing.T) {
	root := t.TempDir()
	name := refusedPeerName(t)
	seedPeerStore(t, root, name).Close()
	survivor := newSurvivor(t, root, name)
	id := "job-000001@" + name
	waitAdoptedDone(t, survivor, id)

	l, err := net.Listen("tcp", name)
	if err != nil {
		t.Fatal(err)
	}
	creator := bootDurableNode(t, l, root, &cluster.Peer{Name: name, URL: "http://" + name, Weight: 1}, survivor.peer)
	if fence, ok := creator.s.jobs.Snapshot("job-000001"); !ok || fence.State != jobstore.Canceled || fence.AdoptedBy != survivor.peer.Name {
		t.Fatalf("the creator's record = %+v, want the fence naming %s", fence, survivor.peer.Name)
	}
	for _, route := range []string{"", "/stats"} {
		_, want := getURL(t, survivor.ts.URL+"/v1/jobs/"+id+route)
		for _, n := range []*clusterNode{survivor, creator} {
			code, body := getURL(t, n.ts.URL+"/v1/jobs/"+id+route)
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("GET job%s through %s: status %d: %s\nwant the adopted copy: %s", route, n.peer.Name, code, body, want)
			}
		}
	}
	var job JobInfo
	if _, body := getURL(t, creator.ts.URL+"/v1/jobs/"+id); json.Unmarshal(body, &job) != nil || job.State != "done" {
		t.Fatalf("GET job through the creator: %+v, want done", job)
	}
}

// TestStatusRowOfSilentPeerIsDown: the federated status fetches every
// peer; one that does not answer is "down" with the fetch's error, and
// the report does not wait on it past the fan-out timeout.
func TestStatusRowOfSilentPeerIsDown(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	a, b := nodes[0], nodes[1]
	row := func() NodeStatus {
		t.Helper()
		code, body := getURL(t, a.ts.URL+"/v1/cluster/status")
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var st ClusterStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		for _, n := range st.Nodes {
			if n.Name == b.peer.Name {
				return n
			}
		}
		t.Fatalf("no row for %s in %s", b.peer.Name, body)
		return NodeStatus{}
	}
	if r := row(); r.State != "up" || r.Version == "" || r.Error != "" {
		t.Fatalf("live peer's row = %+v, want up with its version", r)
	}
	b.ts.Close()
	start := time.Now()
	if r := row(); r.State != "down" || r.Error == "" {
		t.Fatalf("silent peer's row = %+v, want down with an error", r)
	}
	if took := time.Since(start); took > statusFanoutTimeout+time.Second {
		t.Fatalf("status waited %v on the silent peer", took)
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
