package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"symcluster/internal/cluster"
	"symcluster/internal/obs"
)

// Coordinator mode: every symclusterd node in a -peers cluster is both
// a shard and a router. Graph ids are content-derived from the graph
// fingerprint, so any node can compute which peer owns a graph from
// the id alone (consistent hashing over the fingerprint, weighted by
// peer weight). Job and upload ids are only meaningful on the node that
// created them, so in cluster mode they are qualified at the API edge —
// "job-000042@host:port" — and routed back by that suffix; internally
// the ids stay unqualified so the WAL id sequence and every single-node
// code path are untouched.
//
// Where a request is served is decided once, in coordinator.route, from
// how the route table (Server.routeTable) says the pattern's owner is
// found: here, one forwarded hop away through the retrying
// cluster.Client, or — the owner being down, DESIGN.md §14 — refused
// with 503 + Retry-After. graphpush.go moves whole graphs to their
// owner; adoption.go takes over a dead peer's journal.

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

// ownerKey says where a route's owner is read from.
type ownerKey int

const (
	graphInBody ownerKey = iota // ring owner of the JSON body's graph_id
	graphInPath                 // ring owner of the {id} path value
	idSuffix                    // "@peer" suffix of the {id} job or upload id
)

// owner is how a class of routes finds the node that serves a request,
// and what differs between classes that share a key. A nil *owner is
// this node, whatever the request says.
type owner struct {
	by ownerKey
	// localFirst (graph keys): a copy held here — or a miss no healthy
	// node owns — is answered here; for a read, this node's view is as
	// good as any.
	localFirst bool
	// adoptable (idSuffix): while the creator is down, the id is served
	// from the copy this node adopted out of its WAL, if it has one.
	adoptable bool
	// noun and ifDown (idSuffix) word the 404 of an unknown creator and
	// the 503 of a down one.
	noun, ifDown string
}

// Route flags.
const (
	// stopsOnDrain: 503 once Drain has begun — the routes that take in
	// new work, and /healthz, whose 503 moves balancers and probes away.
	stopsOnDrain = 1 << iota
	// uncapped: no request body cap — the peer CSR push, whose payload
	// the sending node already admitted, chunk by capped chunk.
	uncapped
	// peerOnly: peer-to-peer surface, mounted only in cluster mode.
	peerOnly
)

// route is one row of the route table.
type route struct {
	pattern string
	handler http.HandlerFunc
	owner   *owner
	flags   int
}

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
	adoptMu sync.Mutex
	adopted map[string]bool
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
			s.metrics.retryExhausted.Inc()
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
			s.metrics.proxyRetries.Inc()
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

// forwarded reports whether the request already took its one hop. Such
// a request is always served here, so divergent health views can never
// loop it around the ring. (Only internal/cluster sets the header.)
func forwarded(r *http.Request) bool { return r.Header.Get(cluster.ForwardHeader) != "" }

// graphID is the content-derived id a graph is registered under.
func graphID(fingerprint uint64) string { return fmt.Sprintf("g-%016x", fingerprint) }

// ringKey is the ring position of a graph id off the wire: the
// fingerprint a content-derived id embeds; anything else (a client
// typo) hashes, so the lookup still lands deterministically somewhere.
func ringKey(id string) uint64 {
	if hex, ok := strings.CutPrefix(id, "g-"); ok && len(hex) == 16 {
		if fp, err := strconv.ParseUint(hex, 16, 64); err == nil {
			return fp
		}
	}
	return cluster.HashString(id)
}

// ownerOf resolves the healthy owner of a ring key: a graph's
// fingerprint, or the name hash that elects a dead peer's adopter.
func (c *coordinator) ownerOf(key uint64) (*cluster.Peer, bool) {
	return c.ring.Owner(key, c.health.Healthy)
}

// errNoOwner refuses a graph whose shard has no healthy node: degrade
// loudly (503 + Retry-After) rather than run on the wrong one.
func errNoOwner(id string) error {
	return &apiError{code: http.StatusServiceUnavailable,
		err: fmt.Errorf("no healthy node owns graph %s; retry shortly", id)}
}

// route wraps one routed row of the table: a request is served here,
// forwarded one hop to the peer that owns it, or refused.
func (c *coordinator) route(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		peer, body, err := c.resolve(rt.owner, r)
		switch {
		case err != nil:
			refuse(w, err)
		case peer == nil || peer == c.self:
			rt.handler(w, r)
		default:
			c.forward(w, r, peer, body)
		}
	}
}

// resolve names the peer a request belongs to — nil for "serve it
// here", which may rewrite the {id} path value to the local id the
// handler knows — and returns the request body when it had to be read.
func (c *coordinator) resolve(o *owner, r *http.Request) (*cluster.Peer, []byte, error) {
	id := r.PathValue("id")
	if o.by == idSuffix {
		// Ids minted here (or unqualified) are local; a healthy creator
		// gets the request; a down one's id is served from the adopted
		// copy or refused — failover may still be in flight, and an
		// upload session has no durable state to fail over.
		local, name := splitQualified(id)
		peer, member := c.ring.Peer(name)
		switch {
		case name == "" || peer == c.self || forwarded(r):
			r.SetPathValue("id", local)
			return nil, nil, nil
		case !member:
			return nil, nil, &apiError{code: http.StatusNotFound,
				err: fmt.Errorf("unknown %s %q: %q is not a cluster member", o.noun, id, name)}
		case c.health.Healthy(name):
			body, err := readBody(r)
			return peer, body, err
		}
		if adoptedID, ok := c.s.jobs.LookupByKey(adoptKey(name, local)); ok && o.adoptable {
			r.SetPathValue("id", adoptedID)
			return nil, nil, nil
		}
		return nil, nil, &apiError{code: http.StatusServiceUnavailable,
			err: fmt.Errorf("%s %s lives on %s, which is down; %s", o.noun, id, name, o.ifDown)}
	}
	if forwarded(r) {
		return nil, nil, nil
	}
	var body []byte
	if o.by == graphInBody {
		var err error
		if body, err = readBody(r); err != nil {
			return nil, nil, err
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var peek struct {
			GraphID string `json:"graph_id"`
		}
		// Routing needs only graph_id; strict decoding happens on the
		// node that runs the request, and a body with no usable id goes
		// to the local handler for the precise 400.
		if err := json.Unmarshal(body, &peek); err != nil || peek.GraphID == "" {
			return nil, nil, nil
		}
		id = peek.GraphID
	}
	if o.localFirst {
		if _, here := c.s.lookupGraph(id); here {
			return nil, nil, nil
		}
	}
	peer, ok := c.ownerOf(ringKey(id))
	if !ok && !o.localFirst {
		return nil, nil, errNoOwner(id)
	}
	return peer, body, nil
}

// readBody drains the (already MaxBytesReader-capped) request body for
// forwarding or local replay.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, badRequest("reading body: %w", err)
	}
	return body, nil
}

// tracedHop runs one side of an inter-node hop as the root span of an
// exported trace segment. The cluster client injects the span's
// traceparent and the receiver's middleware joins it, so whatever the
// peer runs — including an async job outliving the request — is one
// trace that GET /v1/jobs/{id}/trace stitches across nodes.
func (s *Server) tracedHop(ctx context.Context, name string, hop func(context.Context, *obs.Span) error, attrs ...obs.Attr) error {
	tr := obs.NewTraceFrom(ctx)
	ctx, span := tr.StartRoot(ctx, name, attrs...)
	err := hop(ctx, span)
	span.EndErr(err)
	s.traces.Export(tr)
	return err
}

// forward proxies the request (body already read) one hop to peer,
// relaying status, headers and body verbatim, as a "proxy" span counted
// per peer and status in symclusterd_proxy_requests_total. A failed hop
// is a 502 — or, when the peer's breaker is open and nothing touched
// the network, a 503 with the breaker's remaining cooldown.
func (c *coordinator) forward(w http.ResponseWriter, r *http.Request, peer *cluster.Peer, body []byte) {
	var resp *http.Response
	err := c.s.tracedHop(r.Context(), "proxy", func(ctx context.Context, span *obs.Span) (err error) {
		hdr := r.Header.Clone()
		cluster.MarkForwarded(hdr, c.self.Name)
		hdr.Del("Content-Length") // the client recomputes it per attempt
		resp, err = c.client.Do(ctx, r.Method, peer.URL+r.URL.RequestURI(), hdr, body)
		if err == nil {
			span.SetAttr("code", resp.StatusCode)
		}
		return err
	}, obs.A("peer", peer.Name), obs.A("method", r.Method), obs.A("path", r.URL.Path))
	if err != nil {
		err = badGateway("forwarding to %s: %w", peer.Name, err)
		c.s.metrics.IncProxyRequest(peer.Name, httpStatus(err))
		refuse(w, err)
		return
	}
	defer resp.Body.Close()
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

// peerStates renders the health checker's verdicts for /healthz.
func (c *coordinator) peerStates() map[string]string {
	states := make(map[string]string, len(c.ring.Peers()))
	for _, p := range c.ring.Peers() {
		states[p.Name] = c.health.State(p.Name)
	}
	return states
}
