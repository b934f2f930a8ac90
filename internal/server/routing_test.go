package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/faultinject"
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
// the four places its owner can be — this node, a healthy peer, a dead
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
			// (The peers' health probes land on /healthz all the time.)
			if got := servedOn(peer.s, landing) - landedBefore; got != hops && landing != "GET /healthz" {
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

	// Owner down: an id minted by the dead node is refused with 503 +
	// Retry-After (there is no shared durable root to adopt from); a
	// graph's ring range falls through to the survivor, which answers
	// from its own (empty) tables rather than a 502 or a hang.
	home.ts.Close()
	waitPeerState(t, other.ts, home.peer.Name, "down")
	for _, rt := range public {
		p := routeProbes[rt.pattern]
		t.Run("down/"+rt.pattern, func(t *testing.T) {
			want := p.stray
			byID := routed(rt) && rt.owner.by == idSuffix
			if byID {
				want = http.StatusServiceUnavailable
			}
			resp, body := check(t, rt, other, nil, fx.request(rt, other.ts.URL, false, true), want, 0, "")
			if got := resp.Header.Get("Retry-After"); byID && got != "1" || !byID && got != "" {
				t.Fatalf("Retry-After = %q", got)
			}
			if byID && !strings.Contains(body, "lives on "+home.peer.Name+", which is down") {
				t.Fatalf("503 body does not name the dead creator: %s", body)
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

// TestFinalizeBehindOpenBreakerIs503 is the regression test for the
// upload-finalize refusal: a non-owner whose breaker to the owner is
// open used to answer finalize with a bare 502 while POST /v1/graphs
// answered the identical condition with 503 + Retry-After. Both go
// through placeGraph and refuse now, so both say 503 + the breaker's
// remaining cooldown.
func TestFinalizeBehindOpenBreakerIs503(t *testing.T) {
	defer faultinject.Reset()
	nodes := newTestCluster(t, 2, func(_ int, cfg *Config) {
		// The fault site below fails health probes too; keep the prober
		// out of it so the ring keeps naming the peer as owner.
		cfg.Cluster.ProbeInterval = time.Hour
		cfg.Cluster.ProxyAttempts = 1
		cfg.Cluster.BreakerFailThreshold = 1
		cfg.Cluster.BreakerCooldown = time.Minute
	})
	g := mustFigure1Graph(t)
	owner, ok := nodes[0].s.coord.ownerOf(g.Fingerprint())
	if !ok {
		t.Fatal("no owner for Figure 1")
	}
	entry := nodes[0]
	if owner.Name == entry.peer.Name {
		entry = nodes[1]
	}
	fx := &routeFixture{t: t, home: entry.ts.URL}
	upload := fx.newUpload()

	// One failed hop to the owner opens the entry node's breaker.
	faultinject.Set("proxy.forward", faultinject.Fault{Mode: faultinject.Error, Times: 1})
	if code, body := getURL(t, entry.ts.URL+"/v1/jobs/job-000001@"+owner.Name); code != http.StatusBadGateway {
		t.Fatalf("tripping hop: status %d, want 502: %s", code, body)
	}
	faultinject.Reset()

	finalize, err := http.Post(entry.ts.URL+"/v1/graphs/uploads/"+upload+"/finalize", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	register, err := http.Post(entry.ts.URL+"/v1/graphs", "text/plain", strings.NewReader(figure1Edges))
	if err != nil {
		t.Fatal(err)
	}
	for name, resp := range map[string]*http.Response{"finalize": finalize, "register": register} {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s behind an open breaker: status %d, want 503: %s", name, resp.StatusCode, body)
		}
		if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); secs < 1 || secs > 60 {
			t.Errorf("%s: Retry-After = %q, want the breaker's remaining cooldown", name, resp.Header.Get("Retry-After"))
		}
	}
}

// TestRefusalTable holds refuse to DESIGN.md §9's "HTTP status map":
// every row there is produced here from the error production code
// raises, and every case here has its row.
func TestRefusalTable(t *testing.T) {
	open := &cluster.BreakerOpenError{Peer: "p", RetryAfter: 2500 * time.Millisecond}
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
		{"queued bytes over budget", errShed, 429, "1"},
		{"client went away", context.Canceled, 499, ""},
		{"internal error", io.ErrClosedPipe, 500, ""},
		{"hop failed", badGateway("forwarding to p: %w", io.ErrClosedPipe), 502, ""},
		{"breaker open", badGateway("forwarding to p: %w", open), 503, "3"},
		{"queue full", ErrQueueFull, 503, "1"},
		{"owner down", &apiError{code: http.StatusServiceUnavailable, err: io.EOF}, 503, "1"},
		{"no healthy owner", errNoOwner("g-1"), 503, "1"},
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
