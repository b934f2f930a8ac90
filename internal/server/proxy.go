package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	symcluster "symcluster"
	"symcluster/internal/cluster"
	"symcluster/internal/csr"
	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// Coordinator mode: every symclusterd node in a -peers cluster is both
// a shard and a router. Graph ids are content-derived from the graph
// fingerprint, so any node can compute which peer owns a graph from
// the id alone (consistent hashing over the fingerprint, weighted by
// peer weight); requests that land on a non-owner are forwarded one hop
// to the owner through the retrying cluster.Client. Job and upload ids
// are only meaningful on the node that created them, so in cluster mode
// they are qualified at the API edge — "job-000042@host:port" — and
// routed back by that suffix; internally the ids stay unqualified so
// the WAL id sequence and every single-node code path are untouched.
//
// Failure handling: the active health checker declares a peer down
// after consecutive probe failures. Ownership lookups skip down peers,
// so a dead node's fingerprint ranges fall through to the next ring
// node; when no healthy owner exists the coordinator answers 503 with
// Retry-After instead of guessing. When the cluster shares a durable
// data root (-data-dir), the death of a peer additionally triggers WAL
// adoption: the ring-elected adopter replays the dead node's journal,
// re-creates its unfinished jobs locally (checkpoints included, so
// kernels resume mid-run), and fences the dead journal so a rebooted
// peer does not re-run adopted work. See DESIGN.md §14.
//
// One-hop guarantee: forwarded requests carry X-Symclusterd-Forwarded
// and are always served locally by the receiver, so divergent health
// views can never loop a request around the ring.

// ClusterConfig turns a Server into a member of a static multi-node
// cluster. Zero values select the defaults noted on each field.
type ClusterConfig struct {
	// Self is this node's peer name (the host:port of its public URL);
	// it must match one entry of Peers.
	Self string
	// Peers is the full static membership, this node included.
	Peers []*cluster.Peer
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// FailThreshold and RecoverThreshold are the consecutive-probe
	// counts for declaring a peer down / back up (defaults 3 and 2).
	FailThreshold    int
	RecoverThreshold int
	// ProxyAttempts bounds tries per forwarded request (default 4).
	ProxyAttempts int
	// ProxyTimeout bounds each forwarding attempt (default 10s).
	ProxyTimeout time.Duration
	// ProxyMaxWait caps the backoff (and honored Retry-After) between
	// forwarding attempts (default 5s).
	ProxyMaxWait time.Duration
	// BreakerFailThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker (default 5). The breaker is distinct from
	// the health prober: it reacts to real request traffic within
	// milliseconds and only gates this node's outbound calls, while the
	// prober owns ring membership.
	BreakerFailThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// admitting one half-open trial request (default 5s).
	BreakerCooldown time.Duration
	// RetryBudgetRatio is the token-bucket refill per request (default
	// 0.1: sustained retries are capped at ~10% of request volume).
	RetryBudgetRatio float64
	// RetryBudgetBurst caps banked retry tokens (default 10).
	RetryBudgetBurst float64
}

// forwardHeader marks a request as already forwarded once; receivers
// always serve it locally (the one-hop loop guard). The header is
// defined (and set) in internal/cluster so propagation headers stay in
// one place; servers only read it.
const forwardHeader = cluster.ForwardHeader

// internalCSRPath receives a finished binary CSR file from a peer that
// ingested a graph it does not own (registration or upload finalize on
// a non-owner node). The body is the raw CSR file; the response is the
// GraphInfo of the registered graph. The route is body-cap exempt:
// graphs routed here are exactly the ones too large for one request.
const internalCSRPath = "/internal/v1/graphs/csr"

// coordinator is the per-node cluster brain: ring, health, client.
type coordinator struct {
	s        *Server
	self     *cluster.Peer
	ring     *cluster.Ring
	health   *cluster.Health
	client   *cluster.Client
	breakers *cluster.BreakerSet

	// adoptMu serializes adoption passes and guards adopted: the peers
	// whose WAL this node took over during their current down period
	// (cleared on recovery so a later death re-adopts).
	adoptMu  sync.Mutex
	adopted  map[string]bool
	adoptedC chan string // test hook: receives peer name after adoption
}

// newCoordinator wires the cluster substrate for one node.
func newCoordinator(s *Server, cfg *ClusterConfig) (*coordinator, error) {
	c := &coordinator{
		s:       s,
		ring:    cluster.NewRing(cfg.Peers, 0),
		adopted: make(map[string]bool),
	}
	self, ok := c.ring.Peer(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: -self %q is not in the peer list", cfg.Self)
	}
	c.self = self
	c.breakers = cluster.NewBreakerSet(cluster.BreakerConfig{
		FailThreshold: cfg.BreakerFailThreshold,
		Cooldown:      cfg.BreakerCooldown,
		OnChange: func(peer string, state cluster.BreakerState) {
			s.metrics.SetBreakerState(peer, state)
			s.log().Warn("breaker state change", "peer", peer, "state", state.String())
		},
	})
	budget := cluster.NewRetryBudget(cluster.RetryBudgetConfig{
		Ratio: cfg.RetryBudgetRatio,
		Burst: cfg.RetryBudgetBurst,
		OnExhausted: func() {
			s.metrics.IncRetryBudgetExhausted()
			s.log().Warn("retry budget exhausted; failing fast")
		},
	})
	c.client = cluster.NewClient(cluster.ClientConfig{
		MaxAttempts:    cfg.ProxyAttempts,
		AttemptTimeout: cfg.ProxyTimeout,
		MaxWait:        cfg.ProxyMaxWait,
		Breakers:       c.breakers,
		RetryBudget:    budget,
		OnRetry: func(reason string) {
			s.metrics.IncProxyRetry()
			s.log().Warn("proxy retry", "reason", reason)
		},
	})
	c.health = cluster.NewHealth(cfg.Peers, cluster.HealthConfig{
		Self:             cfg.Self,
		Interval:         cfg.ProbeInterval,
		FailThreshold:    cfg.FailThreshold,
		RecoverThreshold: cfg.RecoverThreshold,
		OnChange: func(p *cluster.Peer, up bool) {
			s.metrics.SetPeerUnhealthy(p.Name, !up)
			if up {
				s.log().Info("peer recovered", "peer", p.Name)
				c.forgetAdoption(p.Name)
			} else {
				s.log().Warn("peer declared down", "peer", p.Name)
			}
		},
		OnDown: func(p *cluster.Peer, err error) {
			go c.adoptIfNeeded(p, err)
		},
	})
	// Seed the gauges at 0 for every remote peer so the families are
	// present (and obviously healthy) before the first transition.
	for _, p := range cfg.Peers {
		if p.Name != cfg.Self {
			s.metrics.SetPeerUnhealthy(p.Name, false)
			s.metrics.SetBreakerState(p.Name, cluster.BreakerClosed)
		}
	}
	return c, nil
}

// nodeDirName maps a peer name to its per-node subdirectory under the
// shared durable data root. Colons (and anything else hostile to
// filesystems) become underscores.
func nodeDirName(peer string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, peer)
	return "node-" + mapped
}

// qualifyID appends "@self" to a job or upload id in cluster mode, so
// any node can route the id back to the node holding its state. In
// single-node mode ids pass through untouched.
func (s *Server) qualifyID(id string) string {
	if s.coord != nil {
		return id + "@" + s.coord.self.Name
	}
	return id
}

// splitQualified splits "id@peer" on the last '@'; peer is empty for
// unqualified ids.
func splitQualified(id string) (local, peer string) {
	if at := strings.LastIndexByte(id, '@'); at >= 0 {
		return id[:at], id[at+1:]
	}
	return id, ""
}

// adoptKey is the idempotency key under which a dead peer's job is
// re-created on the adopter. Keyed by (peer, original id), it dedups
// re-adoption across adopter restarts: replaying the adopter's own WAL
// re-arms the key, so a second adoption pass finds the existing job.
func adoptKey(peer, jobID string) string {
	return "adopt/" + peer + "/" + jobID
}

// forwarded reports whether the request already took its one hop.
func forwarded(r *http.Request) bool { return r.Header.Get(forwardHeader) != "" }

// ownerOf resolves the healthy owner of a graph id. Content-derived
// ids ("g-<16 hex>") are routed by the embedded fingerprint; anything
// else (a client typo, an internal name) hashes the id string so the
// lookup still lands deterministically somewhere.
func (c *coordinator) ownerOf(graphID string) (*cluster.Peer, bool) {
	fp := cluster.HashString(graphID)
	if hex, ok := strings.CutPrefix(graphID, "g-"); ok && len(hex) == 16 {
		if v, err := strconv.ParseUint(hex, 16, 64); err == nil {
			fp = v
		}
	}
	return c.ring.Owner(fp, c.health.Healthy)
}

// noOwner answers a request whose owning shard has no healthy node:
// degrade loudly (503 + Retry-After) rather than run on the wrong node.
func (c *coordinator) noOwner(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("no healthy node owns %s; retry shortly", what))
}

// forward proxies the request one hop to peer, relaying status,
// headers and body verbatim. body is the already-read request body
// (nil for bodyless methods). The hop is traced as a "proxy" span
// exported to the server's trace sink, and counted per peer and status
// in symclusterd_proxy_requests_total. The cluster client injects the
// proxy span's traceparent on the hop, so whatever the peer runs —
// including an async job outliving this request — joins the same trace
// and GET /v1/jobs/{id}/trace can stitch one tree across both nodes.
func (c *coordinator) forward(w http.ResponseWriter, r *http.Request, peer *cluster.Peer, body []byte) {
	tr := obs.NewTraceFrom(r.Context())
	ctx, span := tr.StartRoot(r.Context(), "proxy",
		obs.A("peer", peer.Name),
		obs.A("method", r.Method),
		obs.A("path", r.URL.Path))
	hdr := r.Header.Clone()
	cluster.MarkForwarded(hdr, c.self.Name)
	hdr.Del("Content-Length") // the client recomputes it per attempt
	url := peer.URL + r.URL.RequestURI()
	resp, err := c.client.Do(ctx, r.Method, url, hdr, body)
	if err != nil {
		span.EndErr(err)
		c.s.traces.Export(tr)
		// An open breaker means this node already knows the peer is
		// failing: answer 503 + Retry-After immediately instead of the
		// generic 502, without having touched the network.
		var boe *cluster.BreakerOpenError
		if errors.As(err, &boe) {
			c.s.metrics.IncProxyRequest(peer.Name, http.StatusServiceUnavailable)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(boe.RetryAfter)))
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("forwarding to %s: %w", peer.Name, err))
			return
		}
		c.s.metrics.IncProxyRequest(peer.Name, http.StatusBadGateway)
		writeError(w, http.StatusBadGateway, fmt.Errorf("forwarding to %s: %w", peer.Name, err))
		return
	}
	defer resp.Body.Close()
	span.SetAttr("code", resp.StatusCode)
	span.End()
	c.s.traces.Export(tr)
	c.s.metrics.IncProxyRequest(peer.Name, resp.StatusCode)
	for k, vs := range resp.Header {
		if k == "Content-Length" {
			continue
		}
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// retryAfterSeconds renders a Retry-After header value from a
// duration, rounding up to at least one second (the header's floor).
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// readBody drains the (already MaxBytesReader-capped) request body for
// forwarding or local replay, translating an overflow into 413.
func (c *coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return body, true
}

// wrapCluster routes POST /v1/cluster by the graph_id in the body: the
// owning shard runs it (locally or one forwarded hop away) so its
// symmetrization cache and WAL keep locality for that graph.
func (c *coordinator) wrapCluster(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if forwarded(r) {
			h(w, r)
			return
		}
		if c.s.Draining() {
			writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
			return
		}
		body, ok := c.readBody(w, r)
		if !ok {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var peek struct {
			GraphID string `json:"graph_id"`
		}
		// Routing needs only graph_id; full (strict) decoding happens on
		// the node that runs the request.
		if err := json.Unmarshal(body, &peek); err != nil || peek.GraphID == "" {
			h(w, r) // let the local handler produce the precise 400
			return
		}
		owner, ok := c.ownerOf(peek.GraphID)
		if !ok {
			c.noOwner(w, "graph "+peek.GraphID)
			return
		}
		if owner.Name == c.self.Name {
			h(w, r)
			return
		}
		c.forward(w, r, owner, body)
	}
}

// wrapJob routes job endpoints by the "@peer" suffix of the id. Ids
// minted by this node (or unqualified ones) are served locally; ids
// minted by a healthy peer are forwarded; ids minted by a down peer
// are answered from the adopted copy when this node adopted the peer's
// WAL, and with 503 + Retry-After while failover is still in flight.
func (c *coordinator) wrapJob(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw := r.PathValue("id")
		local, peerName := splitQualified(raw)
		if peerName == "" || peerName == c.self.Name || forwarded(r) {
			r.SetPathValue("id", local)
			h(w, r)
			return
		}
		peer, ok := c.ring.Peer(peerName)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q: %q is not a cluster member", raw, peerName))
			return
		}
		if c.health.Healthy(peerName) {
			c.forward(w, r, peer, nil)
			return
		}
		if adoptedID, ok := c.s.jobs.LookupByKey(adoptKey(peerName, local)); ok {
			r.SetPathValue("id", adoptedID)
			h(w, r)
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("job %s lives on %s, which is down; failover in progress — retry shortly", raw, peerName))
	}
}

// wrapUpload routes upload-session endpoints by the "@peer" suffix.
// Sessions have no durable state, so a down creator means the session
// is gone; 503 + Retry-After covers the half-open window, after which
// the client aborts and re-uploads.
func (c *coordinator) wrapUpload(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw := r.PathValue("id")
		local, peerName := splitQualified(raw)
		if peerName == "" || peerName == c.self.Name || forwarded(r) {
			r.SetPathValue("id", local)
			h(w, r)
			return
		}
		peer, ok := c.ring.Peer(peerName)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown upload %q: %q is not a cluster member", raw, peerName))
			return
		}
		if !c.health.Healthy(peerName) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("upload %s lives on %s, which is down; if it stays down, abort and restart the upload", raw, peerName))
			return
		}
		body, ok := c.readBody(w, r)
		if !ok {
			return
		}
		c.forward(w, r, peer, body)
	}
}

// wrapGraphGet serves GET /v1/graphs/{id}: locally when the graph is
// registered here, otherwise one hop to the healthy owner.
func (c *coordinator) wrapGraphGet(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if forwarded(r) {
			h(w, r)
			return
		}
		if _, ok := c.s.lookupGraph(id); ok {
			h(w, r)
			return
		}
		owner, ok := c.ownerOf(id)
		if ok && owner.Name != c.self.Name {
			c.forward(w, r, owner, nil)
			return
		}
		h(w, r) // local 404 (or no healthy owner: this node's view is as good as any)
	}
}

// handleRegisterGraph is the cluster-mode POST /v1/graphs: parse the
// edge list locally (the fingerprint is not known until then), then
// register on the owning shard — directly when that is this node,
// otherwise by shipping the binary CSR to the owner over the internal
// endpoint. The response is identical either way, and the returned
// content-derived id routes every later request without qualification.
func (c *coordinator) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	if forwarded(r) {
		c.s.handleRegisterGraph(w, r)
		return
	}
	if c.s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	g, err := readGraphBody(r)
	if err != nil {
		writeError(w, graphBodyStatus(err), err)
		return
	}
	id := fmt.Sprintf("g-%016x", g.Fingerprint())
	owner, ok := c.ownerOf(id)
	if !ok {
		c.noOwner(w, "graph "+id)
		return
	}
	if owner.Name == c.self.Name {
		writeJSON(w, http.StatusCreated, c.s.RegisterGraph(g))
		return
	}
	// The push hop is traced like a proxy hop: the peer's CSR receive
	// joins this root via the traceparent the cluster client injects.
	tr := obs.NewTraceFrom(r.Context())
	ctx, span := tr.StartRoot(r.Context(), "csr.push",
		obs.A("graph_id", id), obs.A("peer", owner.Name))
	dir, err := os.MkdirTemp(c.s.cfg.SpillDir, "symclusterd-push-*")
	if err != nil {
		span.EndErr(err)
		c.s.traces.Export(tr)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating push scratch: %w", err))
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.csr")
	if err := csr.WriteMatrix(ctx, path, g.Adj); err != nil {
		span.EndErr(err)
		c.s.traces.Export(tr)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding graph for %s: %w", owner.Name, err))
		return
	}
	info, code, err := c.pushGraph(ctx, owner, path)
	span.EndErr(err)
	c.s.traces.Export(tr)
	if err != nil {
		var boe *cluster.BreakerOpenError
		if errors.As(err, &boe) {
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(boe.RetryAfter)))
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// pushGraph ships a finished binary CSR file to peer over the internal
// endpoint and returns the GraphInfo the peer registered. The file is
// re-opened per attempt, so retries never send a half-consumed stream.
func (c *coordinator) pushGraph(ctx context.Context, peer *cluster.Peer, path string) (GraphInfo, int, error) {
	st, err := os.Stat(path)
	if err != nil {
		return GraphInfo{}, http.StatusInternalServerError, fmt.Errorf("pushing graph: %w", err)
	}
	hdr := http.Header{}
	cluster.MarkForwarded(hdr, c.self.Name)
	hdr.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.DoStream(ctx, http.MethodPut, peer.URL+internalCSRPath, hdr,
		func() (io.ReadCloser, error) { return os.Open(path) }, st.Size())
	if err != nil {
		c.s.metrics.IncProxyRequest(peer.Name, http.StatusBadGateway)
		return GraphInfo{}, http.StatusBadGateway, fmt.Errorf("pushing graph to %s: %w", peer.Name, err)
	}
	defer resp.Body.Close()
	c.s.metrics.IncProxyRequest(peer.Name, resp.StatusCode)
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode/100 != 2 {
		var eresp ErrorResponse
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
			msg = eresp.Error
		}
		return GraphInfo{}, http.StatusBadGateway,
			fmt.Errorf("peer %s rejected graph: %s (status %d)", peer.Name, msg, resp.StatusCode)
	}
	var info GraphInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return GraphInfo{}, http.StatusBadGateway, fmt.Errorf("decoding %s's response: %w", peer.Name, err)
	}
	return info, 0, nil
}

// handleInternalGraphCSR receives a binary CSR file from a peer and
// registers it locally: PUT /internal/v1/graphs/csr. The file's CRCs
// are validated by csr.Open before anything trusts a byte of it, and
// the id is re-derived from the received content, so a corrupted or
// mis-routed transfer cannot poison the registry.
func (c *coordinator) handleInternalGraphCSR(w http.ResponseWriter, r *http.Request) {
	s := c.s
	// The receive is one segment of the pusher's trace (joined via the
	// traceparent seeded by the middleware); exporting it here makes the
	// stitched tree show both halves of the transfer.
	tr := obs.NewTraceFrom(r.Context())
	ctx, span := tr.StartRoot(r.Context(), "csr.receive", obs.A("peer", r.Header.Get(forwardHeader)))
	fail := func(code int, err error) {
		span.EndErr(err)
		s.traces.Export(tr)
		writeError(w, code, err)
	}
	dir, err := os.MkdirTemp(s.cfg.SpillDir, "symclusterd-recv-*")
	if err != nil {
		fail(http.StatusInternalServerError, fmt.Errorf("creating receive scratch: %w", err))
		return
	}
	path, err := csr.SaveStream(dir, "graph.csr", r.Body)
	if err != nil {
		os.RemoveAll(dir)
		fail(http.StatusBadRequest, fmt.Errorf("receiving graph: %w", err))
		return
	}
	mp, err := csr.Open(ctx, path)
	if err != nil {
		os.RemoveAll(dir)
		fail(http.StatusBadRequest, fmt.Errorf("validating received graph: %w", err))
		return
	}
	g, err := symcluster.NewDirectedGraph(mp.View(), nil)
	if err != nil {
		mp.Close()
		os.RemoveAll(dir)
		fail(http.StatusBadRequest, fmt.Errorf("wrapping received graph: %w", err))
		return
	}
	info := s.registerMappedCSR(g, mp, path, dir)
	span.SetAttr("graph_id", info.ID)
	span.SetAttr("bytes", mp.Bytes())
	span.End()
	s.traces.Export(tr)
	writeJSON(w, http.StatusOK, info)
}

// peerStates renders the health checker's verdicts for /healthz.
func (c *coordinator) peerStates() map[string]string {
	states := make(map[string]string, len(c.ring.Peers()))
	for _, p := range c.ring.Peers() {
		states[p.Name] = c.health.State(p.Name)
	}
	return states
}

// forgetAdoption clears the adopted flag when a peer recovers, so its
// next death triggers a fresh adoption pass.
func (c *coordinator) forgetAdoption(peer string) {
	c.adoptMu.Lock()
	delete(c.adopted, peer)
	c.adoptMu.Unlock()
}

// adoptIfNeeded runs on every failed probe of a down peer and decides
// whether this node must adopt the peer's WAL. Three gates:
//
//   - The probe failed at the transport level (refused, timeout). A
//     peer answering 503 is alive — draining or overloaded — and will
//     resume its own jobs; opening a live peer's WAL would mean two
//     writers on one file.
//   - This node is durable and the ring elects it: the adopter is the
//     healthy owner of HashString(deadPeerName), so every surviving
//     node computes the same answer without coordination.
//   - The peer has not already been adopted this down period.
//
// Adoption failures (e.g. the dead node's WAL directory is on its way
// over a network filesystem) leave the flag unset, so the next probe
// retries.
func (c *coordinator) adoptIfNeeded(dead *cluster.Peer, probeErr error) {
	var pse *cluster.ProbeStatusError
	if errors.As(probeErr, &pse) {
		return
	}
	if !c.s.jobs.Durable() {
		return
	}
	owner, ok := c.ring.Owner(cluster.HashString(dead.Name), c.health.Healthy)
	if !ok || owner.Name != c.self.Name {
		return
	}
	c.adoptMu.Lock() // also serializes concurrent adoptFrom runs
	defer c.adoptMu.Unlock()
	if c.adopted[dead.Name] {
		return
	}
	if c.adoptFrom(dead) {
		c.adopted[dead.Name] = true
		if c.adoptedC != nil {
			c.adoptedC <- dead.Name
		}
	}
}

// adoptFrom replays the dead peer's journal and takes over its
// unfinished jobs: each pending job (interrupted running jobs replay as
// pending) is re-created locally under an idempotency key derived from
// (peer, original id) — so re-adoption after an adopter restart dedups
// — with its kernel checkpoints carried over, its graph imported from
// the dead store by hardlink-or-copy, and a canceled marker journaled
// into the dead peer's WAL so a rebooted peer does not re-run the job.
// The adopted jobs then go through the ordinary replay launcher, which
// resumes their kernels from the carried checkpoints.
func (c *coordinator) adoptFrom(dead *cluster.Peer) bool {
	s := c.s
	dir := filepath.Join(s.cfg.DataDir, nodeDirName(dead.Name))
	if _, err := os.Stat(dir); err != nil {
		// No journal to adopt: the peer never started, or the cluster
		// does not share a data root. Nothing to retry.
		return true
	}
	st, err := jobstore.Open(dir)
	if err != nil {
		s.log().Error("adopting peer WAL", "peer", dead.Name, "err", err)
		return false
	}
	defer st.Close()

	var adoptedJobs []*jobstore.JobRecord
	for _, rec := range st.Jobs() {
		if rec.State != jobstore.Pending {
			continue
		}
		var req ClusterRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			s.log().Error("adopting job: bad request record", "peer", dead.Name, "job", rec.ID, "err", err)
			continue
		}
		if _, ok := s.lookupGraph(req.GraphID); !ok {
			if err := c.importGraphFrom(st, req.GraphID); err != nil {
				// Adopt anyway: the job will fail with "unknown graph",
				// which is visible, instead of silently vanishing.
				s.log().Error("adopting job: importing graph", "peer", dead.Name,
					"job", rec.ID, "graph", req.GraphID, "err", err)
			}
		}
		// The dead record's trace id (journaled when the job started
		// there) becomes the adopted run's link: the new trace's root
		// span carries link_trace_id pointing at the original lineage.
		job, existing, err := s.jobs.Admit(jobstore.JobRecord{
			IdempotencyKey: adoptKey(dead.Name, rec.ID),
			Request:        rec.Request,
			Checkpoints:    rec.Checkpoints,
			LinkTraceID:    rec.TraceID,
		})
		if err != nil {
			s.log().Error("adopting job", "peer", dead.Name, "job", rec.ID, "err", err)
			continue
		}
		// Fence only after the local copy is durable: a crash between
		// the two writes double-runs (deterministic, so harmless) rather
		// than losing the job.
		if err := st.Finish(rec.ID, jobstore.Canceled, nil, "adopted by "+c.self.Name, nil, nil); err != nil {
			s.log().Error("fencing adopted job", "peer", dead.Name, "job", rec.ID, "err", err)
		}
		if existing {
			continue
		}
		s.metrics.IncJobsAdopted()
		s.log().Info("adopted job", "peer", dead.Name, "job", rec.ID,
			"as", job.ID, "checkpoints", len(job.Checkpoints))
		adoptedJobs = append(adoptedJobs, job)
	}
	if len(adoptedJobs) > 0 {
		go s.resumeJobs(adoptedJobs)
	}
	return true
}

// importGraphFrom copies a graph's binary CSR file out of a dead
// peer's store into this node's (hardlink when possible; the source is
// left in place for the peer's eventual reboot), then maps and
// registers it.
func (c *coordinator) importGraphFrom(st *jobstore.Store, graphID string) error {
	src := st.GraphCSRPath(graphID)
	if _, err := os.Stat(src); err != nil {
		return fmt.Errorf("dead peer has no file for %s: %w", graphID, err)
	}
	dst, err := c.s.jobs.ImportGraphFile(graphID, src)
	if err != nil {
		return err
	}
	mp, err := csr.Open(bootContext(), dst)
	if err != nil {
		return fmt.Errorf("mapping imported graph: %w", err)
	}
	g, err := symcluster.NewDirectedGraph(mp.View(), nil)
	if err != nil {
		mp.Close()
		return fmt.Errorf("wrapping imported graph: %w", err)
	}
	c.s.addGraph(g, g.Fingerprint(), dst, mp, "")
	return nil
}
