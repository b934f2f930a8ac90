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
// found: here, or one forwarded hop away — one request through
// cluster.Client on the caller's budget, and a hop that gets no answer
// is refused with 503 + Retry-After (DESIGN.md §14). The caller, not
// the proxy, retries. graphpush.go moves whole graphs to their
// owner; adoption.go takes over the journal of a peer whose process is
// gone.

// ClusterConfig turns a Server into a member of a static multi-node
// cluster.
type ClusterConfig struct {
	// Self is this node's peer name (the host:port of its public URL);
	// it must match one entry of Peers.
	Self string
	// Peers is the full static membership, this node included.
	Peers []*cluster.Peer
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
	// localFirst (graph keys): a copy held here is answered here; for a
	// read, this node's view is as good as any.
	localFirst bool
	// adoptable (idSuffix): the id is served from the copy this node
	// adopted out of its creator's WAL, if it holds one.
	adoptable bool
	// noun (idSuffix) words the 404 of an unknown creator.
	noun string
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

// coordinator is the per-node cluster brain: the ring and the client.
type coordinator struct {
	s      *Server
	self   *cluster.Peer
	ring   *cluster.Ring
	client *cluster.Client
	// sweeping tracks the adoption sweep, which Close waits out.
	sweeping sync.WaitGroup
}

// newCoordinator wires the cluster substrate for one node.
func newCoordinator(s *Server, cfg *ClusterConfig) (*coordinator, error) {
	c := &coordinator{
		s:      s,
		ring:   cluster.NewRing(cfg.Peers, 0),
		client: cluster.NewClient(),
	}
	self, ok := c.ring.Peer(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: -self %q is not in the peer list", cfg.Self)
	}
	c.self = self
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
// a request is always served here, so it can never loop between nodes.
// (Only internal/cluster sets the header.)
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

// ownerOf is the ring owner of a key — a graph's fingerprint — whether
// or not it answers: a hop to a dead owner is a 503 the caller retries.
func (c *coordinator) ownerOf(key uint64) *cluster.Peer {
	p, _ := c.ring.Owner(key, nil)
	return p
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
		// A job this node adopted out of its creator's WAL is served
		// from the adopted copy, even on a hop: a restarted creator,
		// whose record is the adopter's fence, forwards the id here.
		// Other ids minted here (or unqualified, or forwarded) are
		// local; an unknown creator is a 404; every other id goes to its
		// creator.
		local, name := splitQualified(id)
		peer, member := c.ring.Peer(name)
		if o.adoptable && name != "" {
			if adoptedID, ok := c.s.jobs.LookupByKey(adoptKey(name, local)); ok {
				r.SetPathValue("id", adoptedID)
				return nil, nil, nil
			}
		}
		if peer == c.self && !forwarded(r) {
			if adopter := c.adopterOf(o, local); adopter != nil {
				return adopter, nil, nil
			}
		}
		if name == "" || peer == c.self || forwarded(r) {
			r.SetPathValue("id", local)
			return nil, nil, nil
		}
		if !member {
			return nil, nil, &apiError{code: http.StatusNotFound,
				err: fmt.Errorf("unknown %s %q: %q is not a cluster member", o.noun, id, name)}
		}
		body, err := readBody(r)
		return peer, body, err
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
	return c.ownerOf(ringKey(id)), body, nil
}

// adopterOf is the peer that adopted the job id names here: nil unless
// o is adoptable and this node's record of the job is the fence its
// adopter journaled (jobstore.Store.Fence).
func (c *coordinator) adopterOf(o *owner, id string) *cluster.Peer {
	if !o.adoptable {
		return nil
	}
	job, ok := c.s.jobs.Snapshot(id)
	if !ok || job.AdoptedBy == "" {
		return nil
	}
	adopter, _ := c.ring.Peer(job.AdoptedBy)
	return adopter
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

// traced runs fn as the root span of a hop segment: one side of an
// inter-node hop ("proxy", "csr.push", "csr.receive"), or an upload's
// "upload.finalize". On a hop the cluster client injects the span's
// traceparent and the receiver's middleware joins it, so whatever the
// peer runs — including an async job outliving the request — is one
// trace that GET /v1/jobs/{id}/trace stitches across nodes. A hop
// segment is the only tree the trace ring retains: it is what a peer
// stitching a job's trace asks this node for
// (GET /internal/v1/traces/{id}), while a run's own tree is held by its
// job record or sent in its response. Every segment is exported; the
// ring retains it only when keep is set.
func (s *Server) traced(ctx context.Context, name string, keep bool, fn func(context.Context, *obs.Span) error, attrs ...obs.Attr) error {
	tr := obs.NewTraceFrom(ctx)
	ctx, span := tr.StartRoot(ctx, name, attrs...)
	err := fn(ctx, span)
	span.EndErr(err)
	if tree := s.export(tr); keep {
		s.traces.Retain(tree)
	}
	return err
}

// export builds a finished trace's tree, once, feeds it to the span
// table's families and the trace log (-trace-log), and returns it.
// Every trace the daemon records goes through here — a run's, a hop's,
// a finalize's — so the metrics count each segment this node ran
// exactly once, whatever started it: a request, a replay at boot or an
// adoption.
func (s *Server) export(tr *obs.Trace) *obs.SpanNode {
	tree := tr.Tree()
	s.metrics.fold(tree)
	s.traces.Export(tree)
	return tree
}

// forward proxies the request (body already read) one hop to peer,
// relaying status, headers and body verbatim — a shed 503 included —
// as a "proxy" span counted per peer and status in
// symclusterd_proxy_requests_total. The hop is one request on the
// caller's deadline or, where it set none, on RequestTimeout, the bound
// the owner puts on a synchronous run itself; a hop that got no answer
// is refused as unreachable. The ring keeps the hop's segment only when
// the hop starts work on the owner (POST /v1/cluster): that is the root
// a stitched trace asks for, and a poll of the job through this node
// would otherwise evict it.
func (c *coordinator) forward(w http.ResponseWriter, r *http.Request, peer *cluster.Peer, body []byte) {
	ctx, cancel := context.WithTimeout(r.Context(), c.s.cfg.RequestTimeout)
	defer cancel()
	var resp *http.Response
	startsWork := r.Method == http.MethodPost && r.URL.Path == "/v1/cluster"
	err := c.s.traced(ctx, "proxy", startsWork, func(ctx context.Context, span *obs.Span) (err error) {
		hdr := r.Header.Clone()
		cluster.MarkForwarded(hdr, c.self.Name)
		hdr.Del("Content-Length") // the client sets it from the body
		resp, err = c.client.Do(ctx, r.Method, peer.URL+r.URL.RequestURI(), hdr, bytes.NewReader(body), int64(len(body)))
		if err == nil {
			span.SetAttr("code", resp.StatusCode)
		}
		return err
	}, obs.A("peer", peer.Name), obs.A("method", r.Method), obs.A("path", r.URL.Path))
	if err != nil {
		err = unreachable(peer.Name, err)
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
