package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/faultinject"
	"symcluster/internal/graph"
)

// routeProbe is one request that exercises a route pattern: its body
// (content type, then text with {graph} standing for the fixture's graph
// id), the status when the node holding the state answers, and the
// status when a node that holds none of it answers from its own tables.
type routeProbe struct {
	ctype, body  string
	owned, stray int
}

const clusterBody = `{"graph_id":"{graph}","method":"dd","algorithm":"mcl","inflation":2,"seed":1}`

// strayEdges is a graph other than Figure 1, for registrations that must
// not put the fixture's graph on the wrong node.
const strayEdges = "0 1\n1 2\n2 0\n"

// routeProbes covers every public pattern; TestRouteTable fails on a
// table row with no probe, so a new route cannot skip the matrix.
var routeProbes = map[string]routeProbe{
	"POST /v1/graphs":                       {"text/plain", figure1Edges, 201, 201},
	"GET /v1/graphs/{id}":                   {"", "", 200, 404},
	"POST /v1/graphs/uploads":               {"", "", 201, 201},
	"POST /v1/graphs/uploads/{id}":          {"text/plain", "0 1\n", 202, 404},
	"POST /v1/graphs/uploads/{id}/finalize": {"", "", 201, 404},
	"DELETE /v1/graphs/uploads/{id}":        {"", "", 204, 204},
	"POST /v1/cluster":                      {"application/json", clusterBody, 200, 404},
	"GET /v1/jobs/{id}":                     {"", "", 200, 404},
	"GET /v1/jobs/{id}/trace":               {"", "", 200, 404},
	"GET /v1/jobs/{id}/stats":               {"", "", 200, 404},
	"GET /v1/cluster/status":                {"", "", 200, 200},
	"GET /healthz":                          {"", "", 200, 200},
	"GET /metrics":                          {"", "", 200, 200},
}

// fingerprintOf parses an edge list and returns its graph's fingerprint,
// the key the ring places it by.
func fingerprintOf(t *testing.T, edges string) uint64 {
	t.Helper()
	g, err := graph.ReadEdgeList(strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	return g.Fingerprint()
}

// routeFixture is the state the probes address, all of it on one node
// (home): a registered graph, a finished async job on it, and upload
// sessions holding Figure 1.
type routeFixture struct {
	t     *testing.T
	home  string // base URL of the node holding the state
	graph string
	job   string
	spare string // a home-minted upload id for requests that never reach home
}

func newRouteFixture(t *testing.T, home string) *routeFixture {
	t.Helper()
	fx := &routeFixture{t: t, home: home}
	resp, err := http.Post(home+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
	if err != nil {
		t.Fatal(err)
	}
	fx.graph = decode[GraphInfo](t, resp).ID
	resp = postJSON(t, home+"/v1/cluster", ClusterRequest{GraphID: fx.graph, Method: "dd", Algorithm: "mcl", Inflation: 2, Seed: 1, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fixture job: status %d", resp.StatusCode)
	}
	fx.job = decode[JobRef](t, resp).JobID
	waitFor(t, 15*time.Second, "fixture job done", func() bool {
		code, body := getURL(t, home+"/v1/jobs/"+fx.job)
		return code == http.StatusOK && strings.Contains(string(body), `"state":"done"`)
	})
	fx.spare = fx.newUpload()
	return fx
}

// newUpload opens a session on home holding Figure 1 and returns its id
// as home minted it.
func (fx *routeFixture) newUpload() string {
	fx.t.Helper()
	resp, err := http.Post(fx.home+"/v1/graphs/uploads", "", nil)
	if err != nil {
		fx.t.Fatal(err)
	}
	id := decode[UploadRef](fx.t, resp).UploadID
	resp, err = http.Post(fx.home+"/v1/graphs/uploads/"+id, "text/plain", strings.NewReader(figure1Edges))
	if err != nil {
		fx.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fx.t.Fatalf("fixture upload append: status %d", resp.StatusCode)
	}
	return id
}

// request builds the probe of rt against base. live says the request is
// meant to reach the state, so a consumable upload session gets a fresh
// one; stray swaps a registration's body for a graph the fixture does
// not use.
func (fx *routeFixture) request(rt route, base string, live, stray bool) *http.Request {
	fx.t.Helper()
	p := routeProbes[rt.pattern]
	method, path, _ := strings.Cut(rt.pattern, " ")
	id := fx.graph
	if rt.owner != nil && rt.owner.by == idSuffix {
		switch {
		case rt.owner.noun == "job":
			id = fx.job
		case live:
			id = fx.newUpload()
		default:
			id = fx.spare
		}
	}
	body := strings.ReplaceAll(p.body, "{graph}", fx.graph)
	if stray && rt.pattern == "POST /v1/graphs" {
		body = strayEdges
	}
	req, err := http.NewRequest(method, base+strings.ReplaceAll(path, "{id}", id), strings.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	if p.ctype != "" {
		req.Header.Set("Content-Type", p.ctype)
	}
	return req
}

// counterSum totals every series of one counter family (all label
// values) in a node's registry, read in-process so the probe of
// GET /metrics is not disturbed by scrapes.
func counterSum(s *Server, prefix string) (sum float64) {
	var buf bytes.Buffer
	s.metrics.reg.WriteText(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
}

func servedOn(s *Server, pattern string) float64 {
	return counterSum(s, `symclusterd_requests_total{route="`+pattern+`"`)
}

func hopsFrom(s *Server) float64 { return counterSum(s, "symclusterd_proxy_requests_total{") }

// do sends one probe and returns the response with its body read to the
// end — by which point every node it crossed has counted it.
func do(t *testing.T, req *http.Request) (*http.Response, string) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// abortCreated removes the session a create-upload probe opened, so no
// node is left holding sessions whose ids could shadow the fixture's.
func abortCreated(t *testing.T, base, body string) {
	t.Helper()
	_, rest, _ := strings.Cut(body, `"upload_id":"`)
	id, _, _ := strings.Cut(rest, `"`)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/graphs/uploads/"+id, nil)
	do(t, req)
}

// TestRouteTable drives every public route of a two-node cluster through
// the four places its owner can be — this node, a live peer, a dead
// peer, or "already forwarded here" — and a single node through every
// route once. The one-hop guarantee is the counters: a request for a
// peer's state crosses exactly one hop, any other request none.
func TestRouteTable(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	// The fixture lives on whichever node the ring gives Figure 1.
	oi := ownerIndex(t, nodes, registerFigure1(t, nodes[0].ts).ID)
	home, other := nodes[oi], nodes[1-oi]
	fx := newRouteFixture(t, home.ts.URL)
	if !strings.HasSuffix(fx.job, "@"+home.peer.Name) || !strings.HasSuffix(fx.spare, "@"+home.peer.Name) {
		t.Fatalf("cluster ids not qualified with their creator: job %q, upload %q", fx.job, fx.spare)
	}

	var public []route
	for _, rt := range home.s.routeTable() {
		if rt.flags&peerOnly != 0 {
			continue
		}
		if _, ok := routeProbes[rt.pattern]; !ok {
			t.Fatalf("route %q has no probe in routeProbes", rt.pattern)
		}
		public = append(public, rt)
	}
	if len(public) != len(routeProbes) {
		t.Fatalf("routeProbes has %d patterns, the table %d public routes", len(routeProbes), len(public))
	}

	// check sends rt's probe to via and asserts where it was served:
	// hops is how many inter-node calls via made, and a hop must land on
	// landing — the same pattern on the peer, or its CSR receiver.
	check := func(t *testing.T, rt route, via, peer *clusterNode, req *http.Request, want int, hops float64, landing string) (*http.Response, string) {
		t.Helper()
		hopsBefore := hopsFrom(via.s)
		var landedBefore, peerHopsBefore float64
		if peer != nil {
			landedBefore, peerHopsBefore = servedOn(peer.s, landing), hopsFrom(peer.s)
		}
		resp, body := do(t, req)
		line, _, _ := strings.Cut(body, "\n")
		t.Logf("%s -> %d ct=%q ra=%q %s", rt.pattern, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), line)
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, body)
		}
		if got := hopsFrom(via.s) - hopsBefore; got != hops {
			t.Fatalf("%v inter-node hops, want %v", got, hops)
		}
		if peer != nil {
			if got := servedOn(peer.s, landing) - landedBefore; got != hops {
				t.Fatalf("peer served %v requests on %q, want %v", got, landing, hops)
			}
			if got := hopsFrom(peer.s) - peerHopsBefore; got != 0 {
				t.Fatalf("the peer made %v hops of its own; routing is one hop", got)
			}
		}
		if rt.pattern == "POST /v1/graphs/uploads" {
			abortCreated(t, via.ts.URL, body)
		}
		return resp, body
	}
	routed := func(rt route) bool { return rt.owner != nil }

	for _, rt := range public {
		p := routeProbes[rt.pattern]
		t.Run("self/"+rt.pattern, func(t *testing.T) {
			resp, _ := check(t, rt, home, other, fx.request(rt, home.ts.URL, true, false), p.owned, 0, rt.pattern)
			if resp.Header.Get("Retry-After") != "" {
				t.Fatal("Retry-After on a served request")
			}
		})
		t.Run("peer/"+rt.pattern, func(t *testing.T) {
			// A routed request crosses to home once; a registration is
			// parsed here and its CSR pushed to home once; anything else
			// is this node's own business.
			hops, landing := 0.0, rt.pattern
			if routed(rt) {
				hops = 1
			} else if rt.pattern == "POST /v1/graphs" {
				hops, landing = 1, "PUT "+internalCSRPath
			}
			direct, _ := do(t, fx.request(rt, home.ts.URL, true, false))
			resp, _ := check(t, rt, other, home, fx.request(rt, other.ts.URL, true, false), p.owned, hops, landing)
			if rt.pattern == "POST /v1/graphs/uploads" {
				return // the direct request above left a session on home; harmless
			}
			// The hop relays the owner's headers verbatim.
			if got, want := resp.Header.Get("Content-Type"), direct.Header.Get("Content-Type"); got != want {
				t.Fatalf("Content-Type via peer %q, direct %q", got, want)
			}
		})
		t.Run("forwarded/"+rt.pattern, func(t *testing.T) {
			req := fx.request(rt, other.ts.URL, false, true)
			req.Header.Set(cluster.ForwardHeader, "somewhere-else")
			check(t, rt, other, home, req, p.stray, 0, rt.pattern)
		})
	}

	// Owner down: whatever belongs to the dead node — an id it minted,
	// the fixture's graph, a registration of a graph it owns — takes its
	// one hop, gets no answer and is refused with 503 + Retry-After: 1;
	// everything else is answered here as before.
	home.ts.Close()
	strayOwner := other.s.coord.ownerOf(fingerprintOf(t, strayEdges))
	for _, rt := range public {
		p := routeProbes[rt.pattern]
		t.Run("down/"+rt.pattern, func(t *testing.T) {
			dead := routed(rt) || rt.pattern == "POST /v1/graphs" && strayOwner == home.peer
			want, hops := p.stray, 0.0
			if dead {
				want, hops = http.StatusServiceUnavailable, 1
			}
			resp, body := check(t, rt, other, nil, fx.request(rt, other.ts.URL, false, true), want, hops, "")
			if got := resp.Header.Get("Retry-After"); dead && got != "1" || !dead && got != "" {
				t.Fatalf("Retry-After = %q", got)
			}
			if dead && !strings.Contains(body, "owner "+home.peer.Name+" unreachable") {
				t.Fatalf("503 body does not name the dead owner: %s", body)
			}
		})
	}
}

// TestRouteTableSingleNode: without a cluster every public route answers
// from the bare handler, ids stay unqualified, and the peer-to-peer
// surface does not exist.
func TestRouteTableSingleNode(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	fx := newRouteFixture(t, ts.URL)
	if strings.Contains(fx.job, "@") || strings.Contains(fx.spare, "@") {
		t.Fatalf("single-node ids are qualified: job %q, upload %q", fx.job, fx.spare)
	}
	for _, rt := range s.routeTable() {
		want := routeProbes[rt.pattern].owned
		req := fx.request(rt, ts.URL, true, false)
		if rt.flags&peerOnly != 0 {
			method, path, _ := strings.Cut(rt.pattern, " ")
			req, _ = http.NewRequest(method, ts.URL+strings.ReplaceAll(path, "{id}", "x"), nil)
			want = http.StatusNotFound
		}
		if resp, body := do(t, req); resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d: %s", rt.pattern, resp.StatusCode, want, body)
		}
	}
}

// TestUnreachableOwnerIs503: a hop whose one attempt gets a transport
// error is refused 503 + Retry-After: 1 and counted as that 503, whether
// it forwards a request or pushes a graph — finalize and POST
// /v1/graphs both place through pushGraph. The caller retries until the
// owner answers again.
func TestUnreachableOwnerIs503(t *testing.T) {
	defer faultinject.Reset()
	nodes := newTestCluster(t, 2, nil)
	owner := nodes[0].s.coord.ownerOf(mustFigure1Graph(t).Fingerprint())
	entry := nodes[0]
	if owner.Name == entry.peer.Name {
		entry = nodes[1]
	}
	fx := &routeFixture{t: t, home: entry.ts.URL}
	upload := fx.newUpload()

	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error})
	requests := map[string]func() (*http.Response, error){
		"finalize": func() (*http.Response, error) {
			return http.Post(entry.ts.URL+"/v1/graphs/uploads/"+upload+"/finalize", "", nil)
		},
		"register": func() (*http.Response, error) {
			return http.Post(entry.ts.URL+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
		},
		"job GET": func() (*http.Response, error) {
			return http.Get(entry.ts.URL + "/v1/jobs/job-000001@" + owner.Name)
		},
	}
	refused := `symclusterd_proxy_requests_total{peer="` + owner.Name + `",code="503"}`
	for name, send := range requests {
		hits, counted := faultinject.Hits("proxy.forward"), counterSum(entry.s, refused)
		resp, err := send()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "unreachable") {
			t.Errorf("%s to an unreachable owner: status %d, want 503: %s", name, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("%s: Retry-After = %q, want 1", name, ra)
		}
		if n := faultinject.Hits("proxy.forward") - hits; n != 1 {
			t.Errorf("%s: %d hop attempts, want 1", name, n)
		}
		if n := counterSum(entry.s, refused) - counted; n != 1 {
			t.Errorf("%s: counted %v times as a 503 for the owner, want 1", name, n)
		}
	}
}

// newNodeBeforeOwner boots one node of a two-node ring whose other
// member, the owner of Figure 1, is the given handler: the node takes
// whichever place in the ring does not own Figure 1.
func newNodeBeforeOwner(t *testing.T, owner http.Handler) (node *clusterNode, ownerName string, ownerTS *httptest.Server) {
	t.Helper()
	var ls [2]net.Listener
	peers := make([]*cluster.Peer, 2)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		ls[i] = l
		peers[i] = &cluster.Peer{Name: l.Addr().String(), URL: "http://" + l.Addr().String(), Weight: 1}
	}
	build := func(self int) *Server {
		return mustNew(t, Config{Workers: 1, Cluster: &ClusterConfig{Self: peers[self].Name, Peers: peers}})
	}
	self := 0
	s := build(self)
	if s.coord.ownerOf(mustFigure1Graph(t).Fingerprint()).Name == peers[0].Name {
		s.Close()
		self = 1
		s = build(self)
	}
	start := func(l net.Listener, h http.Handler) *httptest.Server {
		ts := httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		t.Cleanup(ts.Close)
		return ts
	}
	ts := start(ls[self], s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	})
	return &clusterNode{s: s, ts: ts, peer: peers[self]}, peers[1-self].Name, start(ls[1-self], owner)
}

// TestPeerAnsweringUnusablyIs502: a graph push the owner answers — with
// a rejection, or with a body that is not a GraphInfo — is a 502 with no
// Retry-After: the owner is up, and asking it again gets the same answer.
func TestPeerAnsweringUnusablyIs502(t *testing.T) {
	var garbled atomic.Bool
	var pushes atomic.Int32
	node, owner, _ := newNodeBeforeOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method+" "+r.URL.Path != "PUT "+internalCSRPath {
			http.NotFound(w, r)
			return
		}
		pushes.Add(1)
		if garbled.Load() {
			fmt.Fprint(w, "not a graph info")
			return
		}
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"validating received graph: section CRC mismatch"}`)
	}))
	for _, c := range []struct {
		garbled bool
		want    string
	}{
		{false, "rejected graph: validating received graph: section CRC mismatch (status 400)"},
		{true, "decoding " + owner + "'s response"},
	} {
		garbled.Store(c.garbled)
		before := pushes.Load()
		resp, err := http.Post(node.ts.URL+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), c.want) {
			t.Errorf("garbled=%v: status %d %s, want 502 naming %q", c.garbled, resp.StatusCode, body, c.want)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("garbled=%v: Retry-After = %q on a 502", c.garbled, ra)
		}
		if n := pushes.Load() - before; n != 1 {
			t.Errorf("garbled=%v: owner saw %d pushes, want 1: an answer is not retried", c.garbled, n)
		}
	}
}

// TestDeadOwnerCountedAs503: with the owner's listener closed, a push
// gets a connection error on its one attempt; it is refused 503 +
// Retry-After: 1 and counted for the owner as the 503 the client saw.
func TestDeadOwnerCountedAs503(t *testing.T) {
	defer faultinject.Reset()
	node, owner, ownerTS := newNodeBeforeOwner(t, http.NotFoundHandler())
	ownerTS.Close()
	// A delay of zero changes nothing but counts the hop's attempts.
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Delay})
	resp, err := http.Post(node.ts.URL+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "owner "+owner+" unreachable") {
		t.Fatalf("status %d %s, want 503 naming %s unreachable", resp.StatusCode, body, owner)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if n := counterSum(node.s, `symclusterd_proxy_requests_total{peer="`+owner+`",code="503"}`); n != 1 {
		t.Fatalf("proxy requests counted as 503 for %s = %v, want 1", owner, n)
	}
	if n := faultinject.Hits("proxy.forward"); n != 1 {
		t.Fatalf("%d push attempts, want 1", n)
	}
}

// slowOwner is longer than the 10 s per-attempt cut hops once had: a
// run that long must still come back through a forwarding node.
const slowOwner = 10*time.Second + 500*time.Millisecond

// TestSlowOwnerAnswersThroughHop: a synchronous run the owner answers
// only after slowOwner reaches the caller through a non-owner, in one
// request to the owner, which was told the hop's bound — RequestTimeout,
// as the caller set no deadline.
func TestSlowOwnerAnswersThroughHop(t *testing.T) {
	var calls atomic.Int32
	var budget atomic.Value
	node, _, _ := newNodeBeforeOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method+" "+r.URL.Path != "POST /v1/cluster" {
			http.NotFound(w, r)
			return
		}
		calls.Add(1)
		budget.Store(r.Header.Get(cluster.DeadlineHeader))
		select {
		case <-time.After(slowOwner):
			fmt.Fprint(w, `{"assign":[0]}`)
		case <-r.Context().Done():
		}
	}))
	id := graphID(mustFigure1Graph(t).Fingerprint())
	resp, err := http.Post(node.ts.URL+"/v1/cluster", "application/json",
		strings.NewReader(`{"graph_id":"`+id+`","method":"dd","algorithm":"mcl"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != `{"assign":[0]}` {
		t.Fatalf("status %d %s, want the owner's 200", resp.StatusCode, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("owner saw %d requests, want 1", n)
	}
	ms, err := strconv.Atoi(budget.Load().(string))
	if limit := node.s.cfg.RequestTimeout; err != nil || ms <= 0 || time.Duration(ms)*time.Millisecond > limit {
		t.Fatalf("owner was told a budget of %q ms, want one within RequestTimeout %v", budget.Load(), limit)
	}
}

// TestShedOwnerRelayedOnce: an owner that sheds with 503 + Retry-After
// is asked once; its answer is relayed, and retrying is the caller's.
func TestShedOwnerRelayedOnce(t *testing.T) {
	var calls atomic.Int32
	node, owner, _ := newNodeBeforeOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	id := graphID(mustFigure1Graph(t).Fingerprint())
	resp, err := http.Post(node.ts.URL+"/v1/cluster", "application/json",
		strings.NewReader(`{"graph_id":"`+id+`","method":"dd","algorithm":"mcl","async":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" || !strings.Contains(string(body), "queue full") {
		t.Fatalf("status %d Retry-After=%q %s, want the owner's 503 and 1", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("owner saw %d requests, want 1", n)
	}
	if n := counterSum(node.s, `symclusterd_proxy_requests_total{peer="`+owner+`",code="503"}`); n != 1 {
		t.Fatalf("relayed 503s counted for %s = %v, want 1", owner, n)
	}
}

// TestRetryRidesThroughOwnerRestart: a caller registers a graph across
// its owner's restart with two requests through the cluster client.
// While the owner is down the entry node answers the first 503 +
// Retry-After: 1; the owner comes back, and the second request
// registers the graph on the owner.
func TestRetryRidesThroughOwnerRestart(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	oi := ownerIndex(t, nodes, graphID(mustFigure1Graph(t).Fingerprint()))
	home, entry := nodes[oi], nodes[1-oi]
	home.ts.Close()

	c := cluster.NewClient()
	register := func() *http.Response {
		t.Helper()
		resp, err := c.Do(context.Background(), http.MethodPost, entry.ts.URL+"/v1/graphs", nil,
			strings.NewReader(figure1Edges), int64(len(figure1Edges)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := register()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("register while the owner is down: %d Retry-After=%q %s, want 503 and 1",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	l, err := net.Listen("tcp", home.peer.Name)
	if err != nil {
		t.Fatal(err)
	}
	back := httptest.NewUnstartedServer(home.s.Handler())
	back.Listener.Close()
	back.Listener = l
	back.Start()
	t.Cleanup(back.Close)

	resp = register()
	info := decode[GraphInfo](t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d after the owner's restart, want 201", resp.StatusCode)
	}
	if _, ok := home.s.lookupGraph(info.ID); !ok {
		t.Fatalf("graph %s not on the restarted owner", info.ID)
	}
	if _, ok := entry.s.lookupGraph(info.ID); ok {
		t.Fatalf("graph %s registered on the entry node too", info.ID)
	}
}

// TestRefusalTable holds refuse to DESIGN.md §9's "HTTP status map":
// every row there is produced here from the error production code
// raises, and every case here has its row.
func TestRefusalTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       int
		retryAfter string
	}{
		{"malformed input", badRequest("decoding body: %w", io.ErrUnexpectedEOF), 400, ""},
		{"unknown id", &apiError{code: http.StatusNotFound, err: io.EOF}, 404, ""},
		{"upload already closed", &apiError{code: http.StatusConflict, err: io.EOF}, 409, ""},
		{"body over the cap", badRequest("decoding body: %w", &http.MaxBytesError{Limit: 1}), 413, ""},
		{"over the job budget", &apiError{code: http.StatusRequestEntityTooLarge, err: io.EOF}, 413, ""},
		{"client went away", context.Canceled, 499, ""},
		{"internal error", io.ErrClosedPipe, 500, ""},
		{"peer answered unusably", badGateway("peer p rejected graph: %s (status %d)", "bad", 400), 502, ""},
		{"owner unreachable", unreachable("p", io.ErrClosedPipe), 503, "1"},
		{"queue full", ErrQueueFull, 503, "1"},
		{"draining", errDraining, 503, ""},
		{"deadline", context.DeadlineExceeded, 504, ""},
	}
	documented := designStatusRows(t)
	for _, c := range cases {
		rec := httptest.NewRecorder()
		refuse(rec, c.err)
		if rec.Code != c.code || rec.Header().Get("Retry-After") != c.retryAfter {
			t.Errorf("%s: %d Retry-After=%q, want %d %q", c.name, rec.Code, rec.Header().Get("Retry-After"), c.code, c.retryAfter)
		}
		if !strings.Contains(rec.Body.String(), `"error":`) {
			t.Errorf("%s: body %q is not the uniform error body", c.name, rec.Body.String())
		}
		row := strconv.Itoa(c.code) + "|" + c.name
		if cell, ok := documented[row]; !ok {
			t.Errorf("DESIGN.md §9 has no row %q", row)
		} else if (cell == "—") != (c.retryAfter == "") {
			t.Errorf("DESIGN.md §9 row %q says Retry-After %q, refuse set %q", row, cell, c.retryAfter)
		}
		delete(documented, row)
	}
	for row := range documented {
		t.Errorf("DESIGN.md §9 row %q is produced by no case here", row)
	}
}

// designStatusRows reads the "HTTP status map" table of DESIGN.md §9:
// "code|case" → its Retry-After cell.
func designStatusRows(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### HTTP status map\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"HTTP status map\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			continue
		}
		if code := strings.TrimSpace(cells[1]); len(code) == 3 && code[0] >= '1' && code[0] <= '5' {
			rows[code+"|"+strings.TrimSpace(cells[2])] = strings.TrimSpace(cells[3])
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §9 status table has no rows")
	}
	return rows
}
