package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"symcluster/internal/cluster"
	"symcluster/internal/csr"
	"symcluster/internal/obs"
)

// Graph placement: a graph lives on the shard that owns its
// fingerprint, which is not known until the edge list is parsed (POST
// /v1/graphs) or the upload merged (finalize), on whichever node the
// client reached. That node installs the graph or ships its binary CSR
// to the owner; the response is identical either way, and the returned
// content-derived id routes every later request without qualification.

// internalCSRPath receives a finished binary CSR file (the raw body)
// from a peer that ingested a graph it does not own, and answers the
// registered GraphInfo. It is body-cap exempt: graphs routed here are
// exactly the ones too large for one request.
const internalCSRPath = "/internal/v1/graphs/csr"

// placeGraph registers a loaded graph on the shard that owns its
// fingerprint: here (always, on a single node or when pinned), or on the
// peer its CSR is pushed to. Either way rg is consumed — installed, or
// its mapping and scratch released.
func (s *Server) placeGraph(ctx context.Context, rg *registeredGraph, pinned bool) (GraphInfo, error) {
	c := s.coord
	if c == nil || pinned {
		return s.install(rg), nil
	}
	peer := c.ownerOf(rg.fingerprint)
	if peer == c.self {
		return s.install(rg), nil
	}
	defer rg.release()
	return c.pushGraph(ctx, peer, rg)
}

// pushGraph ships a graph's binary CSR file — written to scratch first
// when the graph only exists on the heap — to peer over the internal
// endpoint and returns the GraphInfo the peer registered. Like forward,
// the push is one request bounded by the caller's deadline or
// RequestTimeout. The hop is a "csr.push" span; the peer's
// "csr.receive" joins it.
func (c *coordinator) pushGraph(ctx context.Context, peer *cluster.Peer, rg *registeredGraph) (info GraphInfo, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.s.cfg.RequestTimeout)
	defer cancel()
	err = c.s.traced(ctx, "csr.push", true, func(ctx context.Context, _ *obs.Span) error {
		path := rg.csrPath
		if path == "" {
			dir, err := os.MkdirTemp(c.s.cfg.SpillDir, "symclusterd-push-*")
			if err != nil {
				return fmt.Errorf("creating push scratch: %w", err)
			}
			defer os.RemoveAll(dir)
			path = filepath.Join(dir, "graph.csr")
			if err := csr.WriteMatrix(ctx, path, rg.graph.Adj); err != nil {
				return &apiError{code: http.StatusInternalServerError,
					err: fmt.Errorf("encoding graph for %s: %w", peer.Name, err)}
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("pushing graph: %w", err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("pushing graph: %w", err)
		}
		hdr := http.Header{}
		cluster.MarkForwarded(hdr, c.self.Name)
		hdr.Set("Content-Type", "application/octet-stream")
		resp, err := c.client.Do(ctx, http.MethodPut, peer.URL+internalCSRPath, hdr, f, st.Size())
		if err != nil {
			err = unreachable(peer.Name, err)
			c.s.metrics.IncProxyRequest(peer.Name, httpStatus(err))
			return err
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
			return badGateway("peer %s rejected graph: %s (status %d)", peer.Name, msg, resp.StatusCode)
		}
		if err := json.Unmarshal(raw, &info); err != nil {
			return badGateway("decoding %s's response: %w", peer.Name, err)
		}
		return nil
	}, obs.A("graph_id", graphID(rg.fingerprint)), obs.A("peer", peer.Name))
	return info, err
}

// handleInternalGraphCSR installs a binary CSR file a peer pushed: PUT
// /internal/v1/graphs/csr. The CRCs are validated and the id re-derived
// from the received content, so a corrupted or mis-routed transfer
// cannot poison the registry. The receive is a "csr.receive" span, one
// segment of the pusher's trace.
func (s *Server) handleInternalGraphCSR(w http.ResponseWriter, r *http.Request) {
	var info GraphInfo
	err := s.traced(r.Context(), "csr.receive", true, func(ctx context.Context, span *obs.Span) error {
		dir, err := os.MkdirTemp(s.cfg.SpillDir, "symclusterd-recv-*")
		if err != nil {
			return fmt.Errorf("creating receive scratch: %w", err)
		}
		path, err := csr.SaveStream(dir, "graph.csr", r.Body)
		if err != nil {
			os.RemoveAll(dir)
			return badRequest("receiving graph: %w", err)
		}
		rg, err := openGraphFile(ctx, path)
		if err != nil {
			os.RemoveAll(dir)
			return badRequest("validating received graph: %w", err)
		}
		rg.ownDir = dir
		size := rg.mapped.Bytes()
		info = s.install(rg)
		span.SetAttr("graph_id", info.ID)
		span.SetAttr("bytes", size)
		return nil
	}, obs.A("peer", r.Header.Get(cluster.ForwardHeader)))
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}
